package power

import (
	"math"
	"testing"
	"time"

	"github.com/uwsdr/tinysdr/internal/sim"
)

func TestLedgerIntegratesEnergy(t *testing.T) {
	clock := sim.NewClock()
	l := NewLedger(clock)
	l.SetPower("radio", 0.1) // 100 mW
	clock.Advance(10 * time.Second)
	if got := l.Energy(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("energy = %v J, want 1 J", got)
	}
	l.SetPower("radio", 0.2)
	clock.Advance(5 * time.Second)
	if got := l.Energy(); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("energy = %v J, want 2 J", got)
	}
}

func TestLedgerMultipleComponents(t *testing.T) {
	clock := sim.NewClock()
	l := NewLedger(clock)
	l.SetPower("a", 0.001)
	l.SetPower("b", 0.002)
	clock.Advance(time.Second)
	if got := l.Energy(); math.Abs(got-0.003) > 1e-12 {
		t.Errorf("total energy = %v, want 0.003", got)
	}
	if got := l.TotalPower(); math.Abs(got-0.003) > 1e-12 {
		t.Errorf("total power = %v, want 0.003", got)
	}
}

func TestLedgerReset(t *testing.T) {
	clock := sim.NewClock()
	l := NewLedger(clock)
	l.SetPower("x", 1)
	clock.Advance(time.Second)
	l.Reset()
	if got := l.Energy(); got != 0 {
		t.Errorf("energy after reset = %v", got)
	}
	clock.Advance(time.Second)
	if got := l.Energy(); math.Abs(got-1) > 1e-12 {
		t.Errorf("energy after reset+1s = %v, want 1 (power level must survive reset)", got)
	}
}

func TestLedgerSumsAreBitReproducible(t *testing.T) {
	// Energy and TotalPower must sum components in a fixed order: float
	// addition is not associative and Go randomizes map iteration, so an
	// order-sensitive sum would differ in its low bits between identical
	// runs — breaking the fleet campaigns' bit-identical contract.
	build := func() *Ledger {
		clock := sim.NewClock()
		l := NewLedger(clock)
		// Draws with no short exact binary representation expose
		// order-dependent rounding.
		l.SetPower("radio", 0.1)
		l.SetPower("mcu", 0.007)
		l.SetPower("fpga", 0.0301)
		l.SetPower("flash", 1.3e-6)
		l.SetPower("pa", 0.223)
		clock.Advance(137 * time.Second)
		return l
	}
	wantE, wantP := build().Energy(), build().TotalPower()
	for i := 0; i < 50; i++ {
		l := build()
		if got := l.Energy(); got != wantE {
			t.Fatalf("Energy differs between identical ledgers: %v vs %v", got, wantE)
		}
		if got := l.TotalPower(); got != wantP {
			t.Fatalf("TotalPower differs between identical ledgers: %v vs %v", got, wantP)
		}
	}
}

func TestLedgerRejectsNegativePower(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative power must panic")
		}
	}()
	NewLedger(sim.NewClock()).SetPower("x", -1)
}

func TestLedgerReportOrdering(t *testing.T) {
	clock := sim.NewClock()
	l := NewLedger(clock)
	l.SetPower("small", 0.001)
	l.SetPower("big", 0.1)
	clock.Advance(time.Second)
	rep := l.Report()
	if len(rep) != 2 || rep[0].Component != "big" {
		t.Errorf("report = %+v, want big first", rep)
	}
}

func TestPMUDomainGating(t *testing.T) {
	// The board powers up and sleeps with V1 alone on, and WakeAll turns
	// every domain on; the regulator entry carries the Table 3 quiescent
	// draw of the domains that are on and the shutdown draw of the rest.
	var v1Only, all float64
	for _, d := range Domains() {
		all += d.QuiescentA * BatteryVoltage
		if d.Domain == V1 {
			v1Only += d.QuiescentA * BatteryVoltage
		} else {
			v1Only += d.ShutdownA * BatteryVoltage
		}
	}
	p := NewPMU(sim.NewClock())
	if got := p.Ledger().Power("regulators"); got != v1Only {
		t.Fatalf("power-up regulator draw = %v W, want V1 alone %v W", got, v1Only)
	}
	p.WakeAll()
	if got := p.Ledger().Power("regulators"); got != all {
		t.Fatalf("awake regulator draw = %v W, want every domain %v W", got, all)
	}
	p.Sleep()
	if got := p.Ledger().Power("regulators"); got != v1Only {
		t.Fatalf("sleep regulator draw = %v W, want V1 alone %v W", got, v1Only)
	}
}

func TestPMUSleepWake(t *testing.T) {
	p := NewPMU(sim.NewClock())
	if p.awake {
		t.Fatal("PMU must power up with V1 alone")
	}
	p.WakeAll()
	if !p.awake {
		t.Fatal("domains off after WakeAll")
	}
	p.Sleep()
	if p.awake {
		t.Fatal("domains on after Sleep")
	}
}

func TestPMURegulatorPowerIsBitReproducible(t *testing.T) {
	// The conversion overhead sums every component's draw. Float addition
	// is not associative, so a sum in map-iteration order would give one
	// load state more than one regulator power.
	p := NewPMU(sim.NewClock())
	p.WakeAll()
	for i, w := range []float64{0.1, 0.2, 0.3, 0.007, 0.0301, 1.3e-6, 0.223} {
		p.SetPower(string(rune('a'+i)), w)
	}
	want := p.Ledger().Power("regulators")
	for i := 0; i < 2000; i++ {
		p.refresh()
		if got := p.Ledger().Power("regulators"); got != want {
			t.Fatalf("refresh %d: regulator power %v W, want %v W", i, got, want)
		}
	}
}

func TestPMUConversionOverheadTracksLoad(t *testing.T) {
	p := NewPMU(sim.NewClock())
	base := p.Ledger().Power("regulators")
	p.SetPower("fpga", 0.1)
	withLoad := p.Ledger().Power("regulators")
	want := 0.1 * converterLoss
	if math.Abs((withLoad-base)-want) > 1e-9 {
		t.Errorf("overhead delta = %v, want %v", withLoad-base, want)
	}
}

func TestSleepFloorBelowPaperBudget(t *testing.T) {
	// The regulator+board floor of a sleeping PMU with no component load
	// must leave room for the MCU LPM3 draw within the paper's measured
	// 30 µW system sleep power.
	p := NewPMU(sim.NewClock())
	p.Sleep()
	floor := p.Ledger().TotalPower()
	if floor >= 30e-6 {
		t.Errorf("sleep floor %v W leaves no budget for the MCU", floor)
	}
	if floor < 5e-6 {
		t.Errorf("sleep floor %v W implausibly low", floor)
	}
}

func TestDomainsTable(t *testing.T) {
	ds := Domains()
	if len(ds) != 7 {
		t.Fatalf("domain count = %d, want 7 (Table 3)", len(ds))
	}
	seen := map[Domain]bool{}
	for _, d := range ds {
		if seen[d.Domain] {
			t.Fatalf("duplicate domain %v", d.Domain)
		}
		seen[d.Domain] = true
		if len(d.Components) == 0 {
			t.Errorf("domain %v has no components", d.Domain)
		}
		if d.QuiescentA < d.ShutdownA {
			t.Errorf("domain %v: quiescent < shutdown current", d.Domain)
		}
	}
	// Table 3 component spot checks.
	if ds[V5.index()].Regulator != "SC195 (adjustable)" {
		t.Errorf("V5 regulator = %q", ds[V5.index()].Regulator)
	}
}

func (d Domain) index() int { return int(d) }

func TestDomainString(t *testing.T) {
	if V5.String() != "V5" {
		t.Errorf("V5.String() = %q", V5.String())
	}
	if Domain(42).String() == "V1" {
		t.Error("out-of-range domain must not alias V1")
	}
}

func TestBattery(t *testing.T) {
	b := DefaultBattery()
	if got := b.EnergyJ(); math.Abs(got-13320) > 1 {
		t.Errorf("1000 mAh @ 3.7 V = %v J, want 13320", got)
	}
	// §5.3: at 71 µW average the battery should last multiple years.
	life := b.Lifetime(71e-6)
	if y := Years(life); y < 5 {
		t.Errorf("lifetime at 71 µW = %.1f years, want > 5", y)
	}
	// 6.144 J per LoRa OTA update → ≈2100 updates (paper).
	ops := b.Operations(6.144)
	if ops < 2000 || ops > 2300 {
		t.Errorf("OTA updates per battery = %d, want ≈2168", ops)
	}
}

func TestBatteryDegenerateInputs(t *testing.T) {
	b := DefaultBattery()
	if b.Lifetime(0) <= 0 {
		t.Error("zero draw must return positive capped lifetime")
	}
	if b.Operations(0) <= 0 {
		t.Error("zero-energy ops must return positive cap")
	}
}

func TestPMUEnergyThroughSleepCycle(t *testing.T) {
	// One duty cycle: 1 s active at 100 mW, 9 s sleep at ~30 µW.
	clock := sim.NewClock()
	p := NewPMU(clock)
	p.WakeAll()
	p.SetPower("radio", 0.1)
	clock.Advance(time.Second)
	p.SetPower("radio", 0)
	p.SetPower("mcu", 19e-6) // LPM3-level draw
	p.Sleep()
	clock.Advance(9 * time.Second)
	e := p.Ledger().Energy()
	// Active: ~0.1 J x 1.08 overhead; sleep: ~30 µW x 9 s ≈ 0.27 mJ.
	if e < 0.1 || e > 0.12 {
		t.Errorf("cycle energy = %v J, want ≈0.108", e)
	}
}
