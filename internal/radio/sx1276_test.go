package radio

import (
	"math"
	"testing"

	"github.com/uwsdr/tinysdr/internal/lora"
	"github.com/uwsdr/tinysdr/internal/power"
	"github.com/uwsdr/tinysdr/internal/sim"
)

func TestSX1276Sensitivity(t *testing.T) {
	// Paper/datasheet anchor: the SX1276 noise figure puts SF8 BW125 at
	// -126 dBm.
	sens := func(sf int, bw float64) float64 { return lora.SensitivityDBm(sf, bw, SX1276NoiseFigureDB) }
	got := sens(8, 125e3)
	if math.Abs(got-(-126)) > 0.1 {
		t.Errorf("SF8/BW125 sensitivity = %v, want -126", got)
	}
	// Wider bandwidth is less sensitive; higher SF more sensitive.
	if sens(8, 250e3) <= got {
		t.Error("BW250 must be less sensitive than BW125")
	}
	if sens(12, 125e3) >= got {
		t.Error("SF12 must be more sensitive than SF8")
	}
}

func TestSX1276StateMachine(t *testing.T) {
	p := power.NewPMU(sim.NewClock())
	r := NewSX1276(p)
	if r.state != StateSleep {
		t.Fatal("must boot in sleep")
	}
	d, err := r.Transition(StateRX)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("wake must take time")
	}
	if _, err := r.Transition(RadioState(9)); err == nil {
		t.Error("bad state accepted")
	}
}

func TestSNRLimitPanicsOutOfRange(t *testing.T) {
	// The SX1276 demodulator has no SNR limit beyond SF6..SF12, so its
	// sensitivity is undefined there.
	defer func() {
		if recover() == nil {
			t.Fatal("SF13 must panic")
		}
	}()
	lora.SensitivityDBm(13, 125e3, SX1276NoiseFigureDB)
}
