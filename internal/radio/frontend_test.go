package radio

import (
	"testing"

	"github.com/uwsdr/tinysdr/internal/power"
	"github.com/uwsdr/tinysdr/internal/sim"
)

func TestFrontEndRatings(t *testing.T) {
	p := power.NewPMU(sim.NewClock())
	fe900 := NewSE2435L(p)
	fe24 := NewSKY66112(p)
	// §3.1.1: 900 MHz PA up to 30 dBm, 2.4 GHz up to 27 dBm.
	if fe900.MaxPADBm != 30 || fe24.MaxPADBm != 27 {
		t.Errorf("PA ratings = %v / %v, want 30 / 27", fe900.MaxPADBm, fe24.MaxPADBm)
	}
}

func TestFrontEndPowerLadder(t *testing.T) {
	p := power.NewPMU(sim.NewClock())
	fe := NewSKY66112(p)
	sleep := p.Ledger().Power("pa-2400")
	if sleep == 0 || sleep > 4e-6 {
		t.Errorf("sleep draw %v, want ~1 µA x 3.7 V", sleep)
	}
	fe.PowerOff()
	if got := p.Ledger().Power("pa-2400"); got != 0 {
		t.Errorf("powered-off draw = %v, want 0", got)
	}
	fe.Sleep()
	if got := p.Ledger().Power("pa-2400"); got != sleep {
		t.Errorf("sleep draw after cycle = %v, want %v", got, sleep)
	}
}

func TestFrontEndWithRadioReaches30DBm(t *testing.T) {
	// The platform story: 14 dBm radio + SE2435L 16 dB = 30 dBm FCC limit.
	fe := NewSE2435L(power.NewPMU(sim.NewClock()))
	if out := MaxTXPowerDBm + fe.PAGainDB; out != 30 || out != fe.MaxPADBm {
		t.Errorf("max chain output = %v dBm, want the 30 dBm rating", out)
	}
}
