package fpga

import (
	"testing"
	"time"

	"github.com/uwsdr/tinysdr/internal/power"
	"github.com/uwsdr/tinysdr/internal/sim"
)

func TestTable6LoRaRXUtilization(t *testing.T) {
	// Table 6 ground truth: LUTs and truncated percentages per SF.
	want := map[int]struct{ luts, pct int }{
		6:  {2656, 10},
		7:  {2670, 10},
		8:  {2700, 11},
		9:  {2742, 11},
		10: {2786, 11},
		11: {2794, 11},
		12: {2818, 11},
	}
	for sf, w := range want {
		d := LoRaRXDesign(sf)
		if got := d.LUTs(); got != w.luts {
			t.Errorf("SF%d RX LUTs = %d, want %d", sf, got, w.luts)
		}
		if got := d.UtilizationPct(); got != w.pct {
			t.Errorf("SF%d RX utilization = %d%%, want %d%%", sf, got, w.pct)
		}
	}
}

func TestTable6LoRaTXUtilization(t *testing.T) {
	for sf := 6; sf <= 12; sf++ {
		d := LoRaTXDesign(sf)
		if got := d.LUTs(); got != 976 {
			t.Errorf("SF%d TX LUTs = %d, want 976 (SF-independent)", sf, got)
		}
		if got := d.UtilizationPct(); got != 4 {
			t.Errorf("SF%d TX utilization = %d%%, want 4%%", sf, got)
		}
	}
}

func TestBLEDesignUtilization(t *testing.T) {
	d := BLEBeaconDesign()
	if got := d.UtilizationPct(); got != 3 {
		t.Errorf("BLE utilization = %d%% (%d LUTs), want 3%%", got, d.LUTs())
	}
}

func TestConcurrentDesignUtilization(t *testing.T) {
	// §6: parallel demodulation of two configurations uses 17%.
	d := ConcurrentRXDesign(8, 8)
	if got := d.UtilizationPct(); got != 17 {
		t.Errorf("concurrent utilization = %d%% (%d LUTs), want 17%%", got, d.LUTs())
	}
}

func TestDesignsLeaveRoomForCustomLogic(t *testing.T) {
	// The paper's point: even RX+TX together leave most of the part free.
	d := LoRaTRXDesign(12)
	if err := d.Fit(); err != nil {
		t.Fatal(err)
	}
	if free := TotalLUTs - d.LUTs(); free < TotalLUTs/2 {
		t.Errorf("only %d LUTs free after LoRa TRX", free)
	}
}

func TestFitRejectsOversizedDesign(t *testing.T) {
	d := &Design{Name: "huge", Modules: []Module{{Name: "blob", LUTs: TotalLUTs + 1}}}
	if err := d.Fit(); err == nil {
		t.Error("oversized design accepted")
	}
	d2 := &Design{Name: "ram-hog", Modules: []Module{{Name: "buf", LUTs: 10, BRAMBytes: TotalBRAMBytes + 1}}}
	if err := d2.Fit(); err == nil {
		t.Error("RAM-oversized design accepted")
	}
}

func TestConfigureLifecycle(t *testing.T) {
	p := power.NewPMU(sim.NewClock())
	f := New(p)
	if f.State() != StateOff {
		t.Fatal("FPGA must start off")
	}
	if f.Design() != nil {
		t.Fatal("no design when off")
	}
	d, err := f.Configure(LoRaRXDesign(8))
	if err != nil {
		t.Fatal(err)
	}
	// Table 4: boot is 22 ms.
	if d < 20*time.Millisecond || d > 24*time.Millisecond {
		t.Errorf("config time = %v, want ≈22 ms", d)
	}
	if f.State() != StateRunning || f.Design() == nil {
		t.Error("FPGA not running after configure")
	}
	f.PowerOff()
	if f.State() != StateOff || f.Design() != nil {
		t.Error("SRAM FPGA must lose its design on power-off")
	}
}

func TestConfigureRejectsNilAndOversized(t *testing.T) {
	p := power.NewPMU(sim.NewClock())
	f := New(p)
	if _, err := f.Configure(nil); err == nil {
		t.Error("nil design accepted")
	}
	huge := &Design{Name: "huge", Modules: []Module{{Name: "x", LUTs: TotalLUTs * 2}}}
	if _, err := f.Configure(huge); err == nil {
		t.Error("oversized design accepted")
	}
	if f.State() != StateOff {
		t.Error("failed configure must leave FPGA off")
	}
}

func TestPowerScalesWithUtilization(t *testing.T) {
	p := power.NewPMU(sim.NewClock())
	f := New(p)
	f.Configure(SingleToneDesign())
	tone := p.Ledger().Power("fpga")
	f.Configure(ConcurrentRXDesign(8, 8))
	conc := p.Ledger().Power("fpga")
	if conc <= tone {
		t.Errorf("concurrent draw %v <= tone draw %v", conc, tone)
	}
	// §5.2/§6 calibration: the gap between single RX (11%) and concurrent
	// (17%) should be ≈21 mW.
	f.Configure(LoRaRXDesign(8))
	single := p.Ledger().Power("fpga")
	gap := conc - single
	if gap < 15e-3 || gap > 27e-3 {
		t.Errorf("concurrent - single gap = %v W, want ≈21 mW", gap)
	}
	f.PowerOff()
	if got := p.Ledger().Power("fpga"); got != 0 {
		t.Errorf("off draw = %v, want 0", got)
	}
}

func TestStateString(t *testing.T) {
	if StateRunning.String() != "running" || StateOff.String() != "off" || StateConfiguring.String() != "configuring" {
		t.Error("state names wrong")
	}
}

func TestBRAMAccounting(t *testing.T) {
	d := LoRaRXDesign(12)
	if d.BRAMBytes() <= 0 {
		t.Error("RX design must use block RAM")
	}
	if err := d.Fit(); err != nil {
		t.Errorf("SF12 RX must fit: %v", err)
	}
}
