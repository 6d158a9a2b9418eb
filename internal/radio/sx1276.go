package radio

import (
	"fmt"
	"math"
	"time"

	"github.com/uwsdr/tinysdr/internal/power"
)

// SX1276 models the Semtech LoRa transceiver that tinySDR uses as its OTA
// backbone radio and that the evaluation compares against (Fig. 10/11).
// Its LoRa modem demodulates with the same dechirp+FFT structure the
// tinySDR FPGA implements; the chip model here carries the RF-side
// constants: the noise figure behind the datasheet sensitivity (see
// lora.SensitivityDBm), TX power limits and state power.
type SX1276 struct {
	sink  power.Sink
	state RadioState
	txDBm float64
}

// SX1276 constants.
const (
	// SX1276NoiseFigureDB matches the -126 dBm SF8/BW125 datasheet
	// sensitivity given the Semtech demodulator SNR limits.
	SX1276NoiseFigureDB = 7
	// SX1276MaxTXPowerDBm is the PA_BOOST limit used by the OTA AP.
	SX1276MaxTXPowerDBm = 20
	// SX1276CostUSD is the unit cost that motivated choosing LoRa for the
	// backbone (§3.1.2).
	SX1276CostUSD = 4.5
)

// SX1276 power draw per state, battery-side. The RX figure is calibrated
// with the MCU idle draw so an OTA session averages the ≈41 mW implied by
// the paper's 6144 mJ / 150 s LoRa update measurement.
const (
	sx1276SleepPowerW = 0.7e-6
	sx1276IdlePowerW  = 5.0e-6
	sx1276RXPowerW    = 32e-3
	sx1276TXBaseW     = 15e-3
	sx1276PAEff       = 0.25
)

// NewSX1276 returns a backbone radio in sleep, reporting power to sink.
func NewSX1276(sink power.Sink) *SX1276 {
	r := &SX1276{sink: sink, txDBm: 14}
	r.setState(StateSleep)
	return r
}

func (r *SX1276) setState(s RadioState) {
	r.state = s
	switch s {
	case StateSleep:
		r.sink.SetPower("backbone-radio", sx1276SleepPowerW)
	case StateTRXOff:
		r.sink.SetPower("backbone-radio", sx1276IdlePowerW)
	case StateRX:
		r.sink.SetPower("backbone-radio", sx1276RXPowerW)
	case StateTX:
		r.sink.SetPower("backbone-radio", sx1276TXBaseW+math.Pow(10, r.txDBm/10)*1e-3/sx1276PAEff)
	}
}

// Transition moves the modem state machine; SX1276 mode switches are
// sub-millisecond, dominated by the 62.5 µs PLL lock.
func (r *SX1276) Transition(to RadioState) (time.Duration, error) {
	if to < StateSleep || to > StateTX {
		return 0, fmt.Errorf("radio: unknown state %d", int(to))
	}
	d := 62500 * time.Nanosecond
	if r.state == to {
		d = 0
	}
	if r.state == StateSleep && to != StateSleep {
		d = 240 * time.Microsecond // oscillator start
	}
	r.setState(to)
	return d, nil
}
