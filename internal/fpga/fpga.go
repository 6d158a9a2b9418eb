// Package fpga models the Lattice LFE5U-25F on tinySDR: its LUT and
// block-RAM budgets, SRAM-based configuration from external flash over quad
// SPI (the 22 ms boot of Table 4), and per-design power draw.
//
// The package also contains the module library whose LUT costs reproduce
// Table 6 (FPGA utilization for the LoRa modem at each spreading factor),
// and a synthetic bitstream generator whose compressibility tracks design
// utilization, which drives the OTA results of §5.3.
package fpga

import (
	"fmt"
	"time"

	"github.com/uwsdr/tinysdr/internal/flash"
	"github.com/uwsdr/tinysdr/internal/power"
)

// LFE5U-25F budgets.
const (
	// TotalLUTs is the logic capacity of the LFE5U-25F (24 k logic units).
	TotalLUTs = 24288
	// TotalBRAMBytes is the embedded SRAM: 1008 Kb = 126 kB, the paper's
	// "SRAM can buffer up to 126 kB".
	TotalBRAMBytes = 126 * 1024
	// BitstreamSize is the raw configuration image size: 579 kB (§3.1.2).
	BitstreamSize = 579 * 1024
	// PLLClockHz is the transmit clock the FPGA's PLL generates for the
	// LVDS double-data-rate interface.
	PLLClockHz = 64e6
)

// configInitOverhead is configuration logic time beyond the quad-SPI read;
// together they give the 22 ms boot the paper measures.
const configInitOverhead = 3100 * time.Microsecond

// Power model, calibrated jointly with the radio and MCU models against the
// paper's end-to-end measurements (Fig. 9 and §5.2):
//   - staticPowerW covers core leakage, the LVDS I/O bank, PLL and clock
//     tree of a configured, clocked device.
//   - dynamicPowerPerLUT scales with occupied logic; the 21 mW gap the
//     paper reports between single (11%) and concurrent (17%) LoRa
//     demodulation fixes it at ≈14.7 µW/LUT.
const (
	staticPowerW       = 66e-3
	dynamicPowerPerLUT = 14.7e-6
	configPowerW       = 25e-3
)

// State is the FPGA operating state.
type State int

const (
	// StateOff means the V2/V3/V4 rails are gated; SRAM configuration is
	// lost, which is why wake-up requires a flash reboot.
	StateOff State = iota
	// StateConfiguring means the device is self-loading from flash.
	StateConfiguring
	// StateRunning means a design is loaded and clocked.
	StateRunning
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateOff:
		return "off"
	case StateConfiguring:
		return "configuring"
	case StateRunning:
		return "running"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// FPGA is one LFE5U-25F instance.
type FPGA struct {
	sink       power.Sink
	state      State
	design     *Design
	activeLUTs int
}

// New returns a powered-off FPGA reporting power to sink.
func New(sink power.Sink) *FPGA {
	f := &FPGA{sink: sink}
	f.sink.SetPower("fpga", 0)
	return f
}

// State returns the current state.
func (f *FPGA) State() State { return f.state }

// Design returns the loaded design, or nil when unconfigured.
func (f *FPGA) Design() *Design {
	if f.state != StateRunning {
		return nil
	}
	return f.design
}

// ConfigTime is the boot duration: the quad-SPI bitstream read plus
// configuration logic overhead. With the real image size this is ≈22 ms,
// Table 4's "Sleep to Radio Operation" dominator.
func ConfigTime() time.Duration {
	return flash.QuadReadTime(BitstreamSize) + configInitOverhead
}

// Configure loads a design, checking its resource demands against the part.
// It returns the boot duration; the caller owns advancing the simulation
// clock (models never advance time themselves).
func (f *FPGA) Configure(d *Design) (time.Duration, error) {
	if d == nil {
		return 0, fmt.Errorf("fpga: nil design")
	}
	if err := d.Fit(); err != nil {
		return 0, err
	}
	f.state = StateRunning
	f.design = d
	f.activeLUTs = d.LUTs()
	f.refreshPower()
	return ConfigTime(), nil
}

func (f *FPGA) refreshPower() {
	f.sink.SetPower("fpga", staticPowerW+float64(f.activeLUTs)*dynamicPowerPerLUT)
}

// GateTo clock-gates the configured design down to the subset of logic the
// given sub-design represents, so only the active datapath draws dynamic
// power (e.g. the modulator chain during transmit while the demodulator
// sits idle). Passing nil restores the full design.
func (f *FPGA) GateTo(sub *Design) error {
	if f.state != StateRunning {
		return fmt.Errorf("fpga: gate while %v", f.state)
	}
	if sub == nil {
		f.activeLUTs = f.design.LUTs()
	} else {
		if sub.LUTs() > f.design.LUTs() {
			return fmt.Errorf("fpga: gated subset %q (%d LUTs) exceeds design %q (%d LUTs)",
				sub.Name, sub.LUTs(), f.design.Name, f.design.LUTs())
		}
		f.activeLUTs = sub.LUTs()
	}
	f.refreshPower()
	return nil
}

// PowerOff gates the FPGA rails. The configuration is lost (SRAM part).
func (f *FPGA) PowerOff() {
	f.state = StateOff
	f.design = nil
	f.sink.SetPower("fpga", 0)
}
