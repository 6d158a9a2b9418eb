// Package core assembles the tinySDR platform (Fig. 3) from its component
// models: the AT86RF215 I/Q radio, the LFE5U-25F FPGA, the MSP432 MCU, the
// SX1276 OTA backbone, external flash, the RF front ends, and the
// seven-domain power management unit — all sharing one simulated clock and
// one energy ledger.
//
// Device is the object the public tinysdr package wraps: it executes the
// platform's operating procedures (duty-cycled sleep/wake, LoRa TX/RX, BLE
// advertising, OTA reception) with the timing of Table 4 and the power
// behaviour of §5.
package core

import (
	"fmt"
	"time"

	"github.com/uwsdr/tinysdr/internal/ble"
	"github.com/uwsdr/tinysdr/internal/flash"
	"github.com/uwsdr/tinysdr/internal/fpga"
	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/lora"
	"github.com/uwsdr/tinysdr/internal/mcu"
	"github.com/uwsdr/tinysdr/internal/ota"
	"github.com/uwsdr/tinysdr/internal/power"
	"github.com/uwsdr/tinysdr/internal/radio"
	"github.com/uwsdr/tinysdr/internal/sim"
)

// Config selects the device identity.
type Config struct {
	// ID is the OTA device address.
	ID uint16
}

// Device is one tinySDR board.
type Device struct {
	Clock    *sim.Clock
	PMU      *power.PMU
	MCU      *mcu.MCU
	FPGA     *fpga.FPGA
	Radio    *radio.AT86RF215
	Backbone *radio.SX1276
	Flash    *flash.Flash
	FE900    *radio.FrontEnd
	FE2400   *radio.FrontEnd
	OTA      *ota.Node

	asleep bool

	loraParams lora.Params
	loraMod    *lora.Modulator
	loraDemod  *lora.Demodulator

	bleBeacon *ble.Advertiser
}

// New powers up a device: MCU running, radios asleep, FPGA unconfigured —
// the state after a cold boot.
func New(cfg Config) *Device {
	clock := sim.NewClock()
	pmu := power.NewPMU(clock)
	d := &Device{
		Clock:    clock,
		PMU:      pmu,
		MCU:      mcu.New(pmu),
		FPGA:     fpga.New(pmu),
		Radio:    radio.NewAT86RF215(pmu),
		Backbone: radio.NewSX1276(pmu),
		Flash:    flash.New(),
		FE900:    radio.NewSE2435L(pmu),
		FE2400:   radio.NewSKY66112(pmu),
	}
	d.OTA = ota.NewNode(cfg.ID, clock, d.Backbone, d.MCU, d.Flash, d.FPGA)
	return d
}

// Sleep enters the §5.1 deep-sleep state: radios off, FPGA rails gated
// (configuration lost), front ends asleep, MCU in LPM3 with only the wakeup
// timer, PMU domains V2-V7 disabled.
func (d *Device) Sleep() {
	d.Radio.Transition(radio.StateSleep)
	d.Backbone.Transition(radio.StateSleep)
	d.FPGA.PowerOff()
	d.FE900.PowerOff()
	d.FE2400.PowerOff()
	d.MCU.SetState(mcu.StateLPM3)
	d.PMU.Sleep()
	d.asleep = true
}

// SystemPowerW returns the instantaneous battery draw.
func (d *Device) SystemPowerW() float64 { return d.PMU.Ledger().TotalPower() }

// Wake leaves deep sleep and boots the FPGA with the given design. The I/Q
// radio setup (1.2 ms) runs in parallel with the FPGA's 22 ms flash boot
// (§5.1), so the wake latency is the FPGA configuration time. It returns
// the elapsed wake duration.
func (d *Device) Wake(design *fpga.Design) (time.Duration, error) {
	d.PMU.WakeAll()
	d.MCU.SetState(mcu.StateActive)
	bootTime, err := d.FPGA.Configure(design)
	if err != nil {
		return 0, err
	}
	radioTime, err := d.Radio.Transition(radio.StateTRXOff)
	if err != nil {
		return 0, err
	}
	wake := max(bootTime, radioTime)
	d.Clock.Advance(wake)
	d.asleep = false
	return wake, nil
}

// ConfigureLoRa loads the LoRa transceiver design and instantiates the
// modem for the given parameters. The device must be awake.
func (d *Device) ConfigureLoRa(p lora.Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if d.asleep {
		return fmt.Errorf("core: configure while asleep")
	}
	mod, err := lora.NewModulator(p)
	if err != nil {
		return err
	}
	demod, err := lora.NewDemodulator(p)
	if err != nil {
		return err
	}
	if d.FPGA.State() != fpga.StateRunning || d.FPGA.Design().Name != fpga.LoRaTRXDesign(p.SF).Name {
		boot, err := d.FPGA.Configure(fpga.LoRaTRXDesign(p.SF))
		if err != nil {
			return err
		}
		d.Clock.Advance(boot)
	}
	d.loraParams = p
	d.loraMod = mod
	d.loraDemod = demod
	return nil
}

// TransmitLoRa modulates and transmits one packet at the given output
// power, returning the on-air waveform. The clock advances by the radio
// turnaround and the packet's time on air.
func (d *Device) TransmitLoRa(payload []byte, txPowerDBm float64) (iq.Samples, error) {
	if d.loraMod == nil {
		return nil, fmt.Errorf("core: LoRa not configured")
	}
	if err := d.Radio.SetTXPower(txPowerDBm); err != nil {
		return nil, err
	}
	turn, err := d.Radio.Transition(radio.StateTX)
	if err != nil {
		return nil, err
	}
	d.Clock.Advance(turn)
	// Clock-gate the demodulator half of the TRX image while transmitting.
	if err := d.FPGA.GateTo(fpga.LoRaTXDesign(d.loraParams.SF)); err != nil {
		return nil, err
	}
	bb, err := d.loraMod.Modulate(payload)
	if err != nil {
		return nil, err
	}
	air, err := d.Radio.Transmit(bb)
	if err != nil {
		return nil, err
	}
	d.Clock.Advance(d.loraParams.TimeOnAir(len(payload)))
	return air, nil
}

// ReceiveLoRa captures a waveform through the radio's AGC/ADC chain and
// demodulates it. The clock advances by the capture duration.
func (d *Device) ReceiveLoRa(air iq.Samples) (*lora.Packet, error) {
	if d.loraDemod == nil {
		return nil, fmt.Errorf("core: LoRa not configured")
	}
	turn, err := d.Radio.Transition(radio.StateRX)
	if err != nil {
		return nil, err
	}
	d.Clock.Advance(turn)
	// Clock-gate the modulator half while receiving.
	if err := d.FPGA.GateTo(fpga.LoRaRXDesign(d.loraParams.SF)); err != nil {
		return nil, err
	}
	captured, err := d.Radio.Capture(air)
	if err != nil {
		return nil, err
	}
	d.Clock.Advance(time.Duration(float64(len(air)) / d.loraParams.SampleRate() * float64(time.Second)))
	return d.loraDemod.Receive(captured)
}

// ConfigureBLE loads the BLE beacon design and tunes to the 2.4 GHz band.
func (d *Device) ConfigureBLE(b ble.Beacon) error {
	if d.asleep {
		return fmt.Errorf("core: configure while asleep")
	}
	adv, err := ble.NewAdvertiser(b, 4) // 4 SPS at 1 Mbps = the 4 MHz interface
	if err != nil {
		return err
	}
	if d.FPGA.State() != fpga.StateRunning || d.FPGA.Design().Name != fpga.BLEBeaconDesign().Name {
		boot, err := d.FPGA.Configure(fpga.BLEBeaconDesign())
		if err != nil {
			return err
		}
		d.Clock.Advance(boot)
	}
	if _, err := d.Radio.Transition(radio.StateTRXOff); err != nil {
		return err
	}
	settle, err := d.Radio.SetFrequency(ble.AdvChannels[0].FreqHz)
	if err != nil {
		return err
	}
	d.Clock.Advance(settle)
	d.bleBeacon = adv
	return nil
}

// TransmitBeaconBurst advertises once on all three channels, hopping with
// the radio's 220 µs retune (Fig. 13). It returns the per-channel events
// stamped on the device clock.
func (d *Device) TransmitBeaconBurst(txPowerDBm float64) ([]ble.BeaconEvent, error) {
	if d.bleBeacon == nil {
		return nil, fmt.Errorf("core: BLE not configured")
	}
	if err := d.Radio.SetTXPower(txPowerDBm); err != nil {
		return nil, err
	}
	airTime, err := d.bleBeacon.AirTime()
	if err != nil {
		return nil, err
	}
	var events []ble.BeaconEvent
	for i, ch := range ble.AdvChannels {
		if i > 0 {
			settle, err := d.Radio.SetFrequency(ch.FreqHz)
			if err != nil {
				return nil, err
			}
			d.Clock.Advance(settle)
		}
		turn, err := d.Radio.Transition(radio.StateTX)
		if err != nil {
			return nil, err
		}
		d.Clock.Advance(turn)
		start := d.Clock.Now()
		d.Clock.Advance(airTime)
		events = append(events, ble.BeaconEvent{Channel: ch, Start: start, End: d.Clock.Now()})
		if _, err := d.Radio.Transition(radio.StateTRXOff); err != nil {
			return nil, err
		}
	}
	// Return to the first advertising channel for the next burst.
	settle, err := d.Radio.SetFrequency(ble.AdvChannels[0].FreqHz)
	if err != nil {
		return nil, err
	}
	d.Clock.Advance(settle)
	return events, nil
}

// OperationTimings reproduces Table 4 by executing each transition on the
// device and measuring it on the simulated clock.
type OperationTimings struct {
	SleepToRadio time.Duration
	RadioSetup   time.Duration
	TXToRX       time.Duration
	RXToTX       time.Duration
	FreqSwitch   time.Duration
}

// MeasureOperationTimings runs the Table 4 transitions on a scratch device.
func MeasureOperationTimings() (OperationTimings, error) {
	d := New(Config{ID: 0xFFFF})
	var t OperationTimings

	d.Sleep()
	wake, err := d.Wake(fpga.LoRaTRXDesign(8))
	if err != nil {
		return t, err
	}
	t.SleepToRadio = wake
	t.RadioSetup = radio.SetupTime

	if _, err := d.Radio.Transition(radio.StateTX); err != nil {
		return t, err
	}
	t.TXToRX, err = d.Radio.Transition(radio.StateRX)
	if err != nil {
		return t, err
	}
	t.RXToTX, err = d.Radio.Transition(radio.StateTX)
	if err != nil {
		return t, err
	}
	t.FreqSwitch, err = d.Radio.SetFrequency(915e6)
	if err != nil {
		return t, err
	}
	return t, nil
}
