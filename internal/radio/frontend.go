package radio

import (
	"time"

	"github.com/uwsdr/tinysdr/internal/power"
)

// FrontEnd models the external PA/LNA modules: the SE2435L on the 900 MHz
// path and the SKY66112 on the 2.4 GHz path (§3.1.1). Both integrate a PA,
// an LNA, and bypass switches for either; the model carries their ratings
// and charges their sleep or powered-off draw.
type FrontEnd struct {
	Name string
	// MaxPADBm is the module's maximum output power.
	MaxPADBm float64
	// PAGainDB is the amplifier gain when engaged.
	PAGainDB float64
	// LNAGainDB is the receive amplifier gain when engaged.
	LNAGainDB float64
	// LNANoiseFigureDB is the LNA noise figure.
	LNANoiseFigureDB float64
	// PAEfficiency is the added drain efficiency of the external PA.
	PAEfficiency float64

	sink      power.Sink
	component string
}

// Front-end electrical constants shared by both modules.
const (
	// feSleepPowerW is the sleep draw (1 µA).
	feSleepPowerW = 1e-6 * power.BatteryVoltage
	// PASwitchTime is the PA/LNA/bypass path switch latency.
	PASwitchTime = 5 * time.Microsecond
)

// NewSE2435L returns the 900 MHz front end (30 dBm max output).
func NewSE2435L(sink power.Sink) *FrontEnd {
	f := &FrontEnd{
		Name: "SE2435L", MaxPADBm: 30, PAGainDB: 16, LNAGainDB: 12,
		LNANoiseFigureDB: 1.5, PAEfficiency: 0.35,
		sink: sink, component: "pa-900",
	}
	f.Sleep()
	return f
}

// NewSKY66112 returns the 2.4 GHz front end (27 dBm max output).
func NewSKY66112(sink power.Sink) *FrontEnd {
	f := &FrontEnd{
		Name: "SKY66112", MaxPADBm: 27, PAGainDB: 13, LNAGainDB: 11,
		LNANoiseFigureDB: 2.0, PAEfficiency: 0.3,
		sink: sink, component: "pa-2400",
	}
	f.Sleep()
	return f
}

// Sleep puts the module in its 1 µA sleep state with both paths bypassed.
func (f *FrontEnd) Sleep() {
	f.sink.SetPower(f.component, feSleepPowerW)
}

// PowerOff models the module's supply domain (V6/V7) being gated by the
// PMU: zero draw, as in the platform's deep-sleep state.
func (f *FrontEnd) PowerOff() {
	f.sink.SetPower(f.component, 0)
}
