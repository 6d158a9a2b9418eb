package eval

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/uwsdr/tinysdr/internal/ble"
	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/core"
	"github.com/uwsdr/tinysdr/internal/fpga"
	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/mcu"
	"github.com/uwsdr/tinysdr/internal/par"
	"github.com/uwsdr/tinysdr/internal/power"
	"github.com/uwsdr/tinysdr/internal/radio"
)

const bleSPS = 4 // 4 MHz I/Q interface at 1 Mbps

// bleSensThresholdBER is the bit error rate whose RSSI crossing defines the
// Fig. 12 sensitivity. The adaptive runner stops a BER point only once its
// Wilson interval excludes this threshold — resolving rates at the 1e-3
// scale needs the full bit budget near the crossing, and a plain epsilon
// rule would stop there early with a spurious zero.
const bleSensThresholdBER = 1e-3

// Fig12 measures BLE beacon BER vs RSSI: tinySDR's GFSK beacons received
// by the CC2650-class discriminator model.
func Fig12(cfg Config) (*Result, error) {
	bitsPerPoint := 20000
	if cfg.Quick {
		bitsPerPoint = 4000
	}
	mod, err := ble.NewModulator(bleSPS)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 12))
	bits := make([]int, bitsPerPoint)
	for i := range bits {
		bits[i] = rng.Intn(2)
	}
	sig := mod.Modulate(bits)
	floor := channel.NoiseFloorDBm(mod.SampleRate(), radio.CC2650NoiseFigureDB)
	pad := bleSPS * 3 / 2

	// One trial per RSSI point; each worker's discriminator owns its own
	// scratch, and each point's noise derives only from (seed, RSSI).
	// Noise covers the whole waveform up front; the incremental StreamBits
	// path then filters and discriminates only as far as the adaptive
	// stopper actually reads, and its decisions are identical to a full
	// DemodBits pass — the adaptive BER is an exact prefix of the
	// fixed-budget one.
	type berState struct {
		demod *ble.Demodulator
		rx    iq.Samples
		one   []int // single-bit demod scratch
	}
	rssis := sweep(-102, -84, 2)
	bers, err := par.Trials(cfg.Workers, len(rssis),
		func() (*berState, error) {
			demod, err := ble.NewDemodulator(bleSPS)
			if err != nil {
				return nil, err
			}
			return &berState{demod: demod, rx: make(iq.Samples, len(sig)), one: make([]int, 0, 1)}, nil
		},
		func(s *berState, i int) (float64, error) {
			rssi := rssis[i]
			ch := channel.NewAWGN(cfg.Seed+int64(rssi*10), floor)
			rx := ch.ApplyInto(s.rx, sig, rssi)
			s.demod.StreamReset()
			errs, n, err := cfg.Adaptive.runThreshold(bitsPerPoint, bleSensThresholdBER, func(k int) (bool, error) {
				got := s.demod.StreamBits(s.one, rx, pad, k, 1)
				if len(got) == 0 {
					return false, fmt.Errorf("eval: BLE waveform ends before bit %d", k)
				}
				return got[0] != bits[k], nil
			})
			if err != nil {
				return 0, err
			}
			return failRate(errs, n), nil
		})
	if err != nil {
		return nil, err
	}
	sens := Interpolate(rssis, bers, bleSensThresholdBER)
	series := []Series{{Name: "tinySDR BLE beacon", X: rssis, Y: bers}}
	text := RenderXY("BLE beacon evaluation (BER vs RSSI)",
		"RSSI (dBm)", "BER", series, 64, 14)
	text += fmt.Sprintf("\nsensitivity (BER 0.1%%): %.1f dBm — paper: -94 dBm, within 2 dB of the CC2650's %d dBm\n",
		sens, radio.CC2650SensitivityDBm)
	return &Result{ID: "fig12", Title: "BLE BER", Text: text,
		Metrics: map[string]float64{
			"sensitivity_dBm": sens,
			"cc2650_delta_dB": sens - radio.CC2650SensitivityDBm,
		}}, nil
}

// Fig13 runs one advertising burst on the device and measures the
// inter-beacon hop gaps on the simulated clock, plus the envelope view.
func Fig13(cfg Config) (*Result, error) {
	d := core.New(core.Config{ID: 1})
	beacon := ble.Beacon{AdvAddress: [6]byte{0xC0, 0xFF, 0xEE, 0x01, 0x02, 0x03}}
	if err := d.ConfigureBLE(beacon); err != nil {
		return nil, err
	}
	events, err := d.TransmitBeaconBurst(0)
	if err != nil {
		return nil, err
	}

	// Envelope-detector view of the burst (what the paper's oscilloscope
	// captured).
	adv, err := ble.NewAdvertiser(beacon, bleSPS)
	if err != nil {
		return nil, err
	}
	wave, _, err := adv.Burst()
	if err != nil {
		return nil, err
	}
	env := wave.Envelope()
	var s Series
	step := len(env) / 120
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(env); i += step {
		s.X = append(s.X, float64(i)/adv.Mod.SampleRate()*1e3)
		s.Y = append(s.Y, env[i])
	}
	s.Name = "envelope"

	var rows [][]string
	var gaps []time.Duration
	for i, e := range events {
		rows = append(rows, []string{
			fmt.Sprintf("ch %d (%.0f MHz)", e.Channel.Number, e.Channel.FreqHz/1e6),
			fmt.Sprintf("%.3f ms", ms(e.Start)), fmt.Sprintf("%.3f ms", ms(e.End)),
		})
		if i > 0 {
			gaps = append(gaps, e.Start-events[i-1].End)
		}
	}
	text := RenderXY("BLE beacon burst (envelope)", "time (ms)", "amplitude", []Series{s}, 64, 8)
	text += "\n" + RenderTable([]string{"Beacon", "Start", "End"}, rows)
	text += fmt.Sprintf("\nhop gaps: %v, %v (paper: 220 µs; iPhone 8: 350 µs)\n", gaps[0], gaps[1])
	return &Result{ID: "fig13", Title: "BLE burst timing", Text: text,
		Metrics: map[string]float64{
			"gap1_us": float64(gaps[0].Microseconds()),
			"gap2_us": float64(gaps[1].Microseconds()),
		}}, nil
}

// BLEBatteryLife simulates duty-cycled beaconing at one burst per second on
// a 1000 mAh battery, in the radio-bypass mode §3.1.1 enables (the
// AT86RF215's built-in FSK modulator generates the GFSK beacon, so the
// FPGA stays off), plus the FPGA-modulated mode as an ablation.
func BLEBatteryLife(cfg Config) (*Result, error) {
	beacon := ble.Beacon{AdvAddress: [6]byte{1, 2, 3, 4, 5, 6}}
	adv, err := ble.NewAdvertiser(beacon, bleSPS)
	if err != nil {
		return nil, err
	}
	airTime, err := adv.AirTime()
	if err != nil {
		return nil, err
	}

	cycle := func(useFPGA bool) (float64, error) {
		d := core.New(core.Config{ID: 1})
		d.Sleep()
		d.PMU.Ledger().Reset()
		start := d.Clock.Now()

		// Wake: MCU + radio; FPGA only in the ablation.
		d.PMU.WakeAll()
		d.MCU.SetState(mcu.StateActive)
		if useFPGA {
			boot, err := d.FPGA.Configure(fpga.BLEBeaconDesign())
			if err != nil {
				return 0, err
			}
			d.Clock.Advance(boot)
		}
		if _, err := d.Radio.Transition(radio.StateTRXOff); err != nil {
			return 0, err
		}
		d.Clock.Advance(radio.SetupTime)
		if _, err := d.Radio.SetFrequency(ble.AdvChannels[0].FreqHz); err != nil {
			return 0, err
		}
		if err := d.Radio.SetTXPower(0); err != nil {
			return 0, err
		}
		// Three beacons with 220 µs hops.
		for i := range ble.AdvChannels {
			if i > 0 {
				settle, err := d.Radio.SetFrequency(ble.AdvChannels[i].FreqHz)
				if err != nil {
					return 0, err
				}
				d.Clock.Advance(settle)
			}
			if _, err := d.Radio.Transition(radio.StateTX); err != nil {
				return 0, err
			}
			d.Clock.Advance(airTime)
			if _, err := d.Radio.Transition(radio.StateTRXOff); err != nil {
				return 0, err
			}
		}
		// Back to sleep for the rest of the second.
		d.Sleep()
		d.Clock.AdvanceTo(start + time.Second)
		return d.PMU.Ledger().Energy(), nil
	}

	bypassJ, err := cycle(false)
	if err != nil {
		return nil, err
	}
	fpgaJ, err := cycle(true)
	if err != nil {
		return nil, err
	}
	batt := power.DefaultBattery()
	bypassYears := power.Years(batt.Lifetime(bypassJ)) // 1 cycle per second -> J == W
	fpgaYears := power.Years(batt.Lifetime(fpgaJ))

	rows := [][]string{
		{"Radio-bypass mode (built-in FSK)", fmt.Sprintf("%.0f µJ", bypassJ*1e6),
			fmt.Sprintf("%.1f years", bypassYears)},
		{"FPGA-modulated mode (22 ms boot per wake)", fmt.Sprintf("%.0f µJ", fpgaJ*1e6),
			fmt.Sprintf("%.1f years", fpgaYears)},
	}
	text := RenderTable([]string{"Beacon mode", "Energy per 1 s cycle", "1000 mAh lifetime"}, rows)
	text += "\npaper: \"over 2 years on a 1000 mAh battery when transmitting once per second\"\n"
	return &Result{ID: "blebattery", Title: "BLE battery life", Text: text,
		Metrics: map[string]float64{
			"bypass_years":    bypassYears,
			"fpga_years":      fpgaYears,
			"bypass_cycle_uJ": bypassJ * 1e6,
		}}, nil
}
