package radio

import (
	"math"
	"testing"
	"time"

	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/power"
	"github.com/uwsdr/tinysdr/internal/sim"
)

func newRadio(t *testing.T) (*AT86RF215, *power.PMU) {
	t.Helper()
	p := power.NewPMU(sim.NewClock())
	return NewAT86RF215(p), p
}

func TestBandValidation(t *testing.T) {
	valid := []float64{389.5e6, 450e6, 510e6, 779e6, 915e6, 1020e6, 2400e6, 2480e6}
	for _, f := range valid {
		if _, err := BandFor(f); err != nil {
			t.Errorf("BandFor(%.1f MHz) rejected: %v", f/1e6, err)
		}
	}
	invalid := []float64{100e6, 600e6, 1500e6, 2500e6, 5800e6}
	for _, f := range invalid {
		if _, err := BandFor(f); err == nil {
			t.Errorf("BandFor(%.1f MHz) accepted, want error", f/1e6)
		}
	}
}

func TestStateMachineTimings(t *testing.T) {
	r, _ := newRadio(t)
	// Sleep -> TRXOff costs the 1.2 ms setup (Table 4).
	d, err := r.Transition(StateTRXOff)
	if err != nil {
		t.Fatal(err)
	}
	if d != SetupTime {
		t.Errorf("sleep wake = %v, want %v", d, SetupTime)
	}
	if _, err := r.Transition(StateTX); err != nil {
		t.Fatal(err)
	}
	d, _ = r.Transition(StateRX)
	if d != TXToRXTime {
		t.Errorf("TX->RX = %v, want 45 µs", d)
	}
	d, _ = r.Transition(StateTX)
	if d != RXToTXTime {
		t.Errorf("RX->TX = %v, want 11 µs", d)
	}
	d, _ = r.Transition(StateTX)
	if d != 0 {
		t.Errorf("self transition = %v, want 0", d)
	}
	if _, err := r.Transition(RadioState(17)); err == nil {
		t.Error("invalid state accepted")
	}
}

func TestFrequencySwitch(t *testing.T) {
	r, _ := newRadio(t)
	if _, err := r.SetFrequency(868e6); err == nil {
		t.Error("retune in sleep must fail")
	}
	r.Transition(StateTRXOff)
	d, err := r.SetFrequency(2402e6)
	if err != nil {
		t.Fatal(err)
	}
	if d != FreqSwitchTime {
		t.Errorf("freq switch = %v, want 220 µs", d)
	}
	if r.freqHz != 2402e6 {
		t.Errorf("frequency = %v", r.freqHz)
	}
	if _, err := r.SetFrequency(1.8e9); err == nil {
		t.Error("out-of-band retune accepted")
	}
}

func TestTXPowerRange(t *testing.T) {
	r, _ := newRadio(t)
	if err := r.SetTXPower(14); err != nil {
		t.Fatal(err)
	}
	if err := r.SetTXPower(-14); err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{15, 30, -20} {
		if err := r.SetTXPower(p); err == nil {
			t.Errorf("SetTXPower(%v) accepted", p)
		}
	}
}

func TestPowerStateLadder(t *testing.T) {
	r, p := newRadio(t)
	sleep := p.Ledger().Power("iq-radio")
	if sleep > 1e-6 {
		t.Errorf("sleep draw %v W, want sub-µW", sleep)
	}
	r.Transition(StateRX)
	rx := p.Ledger().Power("iq-radio")
	if math.Abs(rx-59e-3) > 1e-6 {
		t.Errorf("RX draw = %v W, want 59 mW (paper §5.2)", rx)
	}
	r.SetTXPower(14)
	r.Transition(StateTX)
	tx := p.Ledger().Power("iq-radio")
	// ≈179 mW at 14 dBm (paper: LoRa TX radio share).
	if tx < 0.17 || tx > 0.19 {
		t.Errorf("TX@14dBm draw = %v W, want ≈0.179", tx)
	}
}

func TestTXPowerCurveShape(t *testing.T) {
	// Fig. 9: flat at low output, rising at high output.
	low := TXPowerW(-14)
	mid := TXPowerW(0)
	high := TXPowerW(14)
	if (mid-low)/low > 0.02 {
		t.Errorf("draw not flat below 0 dBm: %v vs %v", low, mid)
	}
	if high-mid < 30e-3 {
		t.Errorf("draw rise 0->14 dBm = %v W, want > 30 mW", high-mid)
	}
}

func TestTransmitScalesToProgrammedPower(t *testing.T) {
	r, _ := newRadio(t)
	r.Transition(StateTX)
	r.SetTXPower(-13)
	bb := make(iq.Samples, 256)
	for i := range bb {
		ang := 2 * math.Pi * float64(i) / 16
		bb[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	out, err := r.Transmit(bb)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.PowerDBm(); math.Abs(got-(-13)) > 0.1 {
		t.Errorf("on-air power = %v dBm, want -13", got)
	}
}

func TestTransmitRequiresTXState(t *testing.T) {
	r, _ := newRadio(t)
	if _, err := r.Transmit(make(iq.Samples, 4)); err == nil {
		t.Error("transmit in sleep accepted")
	}
}

func TestCaptureAGCAndQuantization(t *testing.T) {
	r, _ := newRadio(t)
	r.Transition(StateRX)
	// A very weak input must be scaled up into the converter range.
	air := make(iq.Samples, 128)
	for i := range air {
		ang := 2 * math.Pi * float64(i) / 8
		air[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	iq.Samples(air).ScaleToDBm(-100)
	got, err := r.Capture(air)
	if err != nil {
		t.Fatal(err)
	}
	p := got.PowerDBm()
	if p < -6 || p > 0 {
		t.Errorf("AGC output power = %v dBm, want near full scale", p)
	}
}

func TestCaptureRequiresRXState(t *testing.T) {
	r, _ := newRadio(t)
	if _, err := r.Capture(make(iq.Samples, 4)); err == nil {
		t.Error("capture in sleep accepted")
	}
}

func TestTransitionAdvancesNoClock(t *testing.T) {
	clock := sim.NewClock()
	p := power.NewPMU(clock)
	r := NewAT86RF215(p)
	r.Transition(StateRX)
	if clock.Now() != 0 {
		t.Error("radio model must not advance the clock itself")
	}
}

func TestStateStrings(t *testing.T) {
	names := map[RadioState]string{StateSleep: "sleep", StateTRXOff: "trxoff", StateRX: "rx", StateTX: "tx"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestWakeupPlusSetupWithinTable4(t *testing.T) {
	// Radio setup (1.2 ms) runs in parallel with the 22 ms FPGA boot, so
	// it must be far below the 22 ms wake budget.
	if SetupTime >= 22*time.Millisecond {
		t.Error("radio setup must be much shorter than FPGA boot")
	}
}
