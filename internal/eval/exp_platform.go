package eval

import (
	"fmt"
	"time"

	"github.com/uwsdr/tinysdr/internal/core"
	"github.com/uwsdr/tinysdr/internal/dsp"
	"github.com/uwsdr/tinysdr/internal/fpga"
	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/lora"
	"github.com/uwsdr/tinysdr/internal/power"
	"github.com/uwsdr/tinysdr/internal/radio"
)

// Table4 measures the operating-mode transition timings on the device's
// simulated clock (sleep wake, radio setup, TX/RX turnarounds, retune).
func Table4(cfg Config) (*Result, error) {
	t, err := core.MeasureOperationTimings()
	if err != nil {
		return nil, err
	}
	rows := [][]string{
		{"Sleep to radio operation", fmtMS(t.SleepToRadio), "22"},
		{"Radio setup", fmtMS(t.RadioSetup), "1.2"},
		{"TX to RX", fmtMS(t.TXToRX), "0.045"},
		{"RX to TX", fmtMS(t.RXToTX), "0.011"},
		{"Frequency switch", fmtMS(t.FreqSwitch), "0.220"},
	}
	text := RenderTable([]string{"Operation", "Measured (ms)", "Paper (ms)"}, rows)
	return &Result{ID: "table4", Title: "Operation timings", Text: text,
		Metrics: map[string]float64{
			"sleep_to_radio_ms": ms(t.SleepToRadio),
			"radio_setup_ms":    ms(t.RadioSetup),
			"tx_to_rx_ms":       ms(t.TXToRX),
			"rx_to_tx_ms":       ms(t.RXToTX),
			"freq_switch_ms":    ms(t.FreqSwitch),
		}}, nil
}

func ms(d time.Duration) float64   { return float64(d.Nanoseconds()) / 1e6 }
func fmtMS(d time.Duration) string { return fmt.Sprintf("%.3f", ms(d)) }

// Fig8 runs the single-tone modulator (FPGA NCO at 13-bit resolution into
// the radio DAC) and estimates the transmit spectrum, checking for
// spurious harmonics.
func Fig8(cfg Config) (*Result, error) {
	// 500 kHz offset tone inside the 4 MHz interface, as in the paper's
	// 915 MHz measurement window.
	nco := dsp.NewNCO(500e3 / radio.SampleRate)
	bb := nco.Generate(1 << 16)
	iq.Quantize(bb, radio.ADCBits, 1.0)
	bb.ScaleToDBm(-13) // the paper's drive level

	spec := dsp.Welch(bb, 2048, radio.SampleRate)
	peakBin, peakDBm := spec.Peak()
	sfdr := spec.SFDR(4)

	series := Series{Name: "tinySDR single tone"}
	step := len(spec.PowerDBm) / 128
	for i := 0; i < len(spec.PowerDBm); i += step {
		series.X = append(series.X, spec.Freq(i)/1e6)
		series.Y = append(series.Y, spec.PowerDBm[i])
	}
	text := RenderXY("Single-tone transmit spectrum (baseband offset)",
		"offset (MHz)", "power (dBm)", []Series{series}, 64, 16)
	text += fmt.Sprintf("\npeak %.1f dBm at %+.3f MHz, SFDR %.1f dB (no unexpected harmonics above -55 dBc)\n",
		peakDBm, spec.Freq(peakBin)/1e6, sfdr)
	return &Result{ID: "fig8", Title: "Single-tone spectrum", Text: text,
		Metrics: map[string]float64{
			"peak_dBm":        peakDBm,
			"peak_offset_MHz": spec.Freq(peakBin) / 1e6,
			"sfdr_dB":         sfdr,
		}}, nil
}

// Fig9 sweeps radio output power from -14 to +14 dBm on both bands and
// records end-to-end system draw (radio + FPGA + MCU + regulators).
func Fig9(cfg Config) (*Result, error) {
	run := func(freqHz float64) (Series, error) {
		d := core.New(core.Config{ID: 1})
		if _, err := d.FPGA.Configure(fpga.SingleToneDesign()); err != nil {
			return Series{}, err
		}
		if _, err := d.Radio.Transition(radio.StateTRXOff); err != nil {
			return Series{}, err
		}
		if _, err := d.Radio.SetFrequency(freqHz); err != nil {
			return Series{}, err
		}
		if _, err := d.Radio.Transition(radio.StateTX); err != nil {
			return Series{}, err
		}
		var s Series
		for p := -14.0; p <= 14.0; p += 2 {
			if err := d.Radio.SetTXPower(p); err != nil {
				return Series{}, err
			}
			s.X = append(s.X, p)
			s.Y = append(s.Y, d.SystemPowerW()*1e3)
		}
		return s, nil
	}
	s900, err := run(915e6)
	if err != nil {
		return nil, err
	}
	s900.Name = "tinySDR 900 MHz"
	s24, err := run(2440e6)
	if err != nil {
		return nil, err
	}
	s24.Name = "tinySDR 2.4 GHz"

	at := func(s Series, dbm float64) float64 {
		for i, x := range s.X {
			if x == dbm {
				return s.Y[i]
			}
		}
		return 0
	}
	text := RenderXY("Single-tone transmitter system power",
		"radio output power (dBm)", "power (mW)", []Series{s900, s24}, 64, 14)
	text += fmt.Sprintf("\n900 MHz: %.0f mW @0 dBm, %.0f mW @14 dBm (paper: 231, 283; USRP E310 is 15-16x higher)\n",
		at(s900, 0), at(s900, 14))
	return &Result{ID: "fig9", Title: "Transmit power sweep", Text: text,
		Metrics: map[string]float64{
			"p0dBm_mW":   at(s900, 0),
			"p14dBm_mW":  at(s900, 14),
			"pm14dBm_mW": at(s900, -14),
			"p14_24G_mW": at(s24, 14),
		}}, nil
}

// SleepPower measures the §5.1 deep-sleep system draw and the resulting
// duty-cycling advantage.
func SleepPower(cfg Config) (*Result, error) {
	d := core.New(core.Config{ID: 1})
	d.Sleep()
	sleepW := d.SystemPowerW()
	// Charge a 10 s sleep on the ledger to confirm the integral.
	d.PMU.Ledger().Reset()
	d.Clock.Advance(10 * time.Second)
	energy := d.PMU.Ledger().Energy()

	batt := power.DefaultBattery()
	rows := [][]string{
		{"System sleep power", fmt.Sprintf("%.1f µW", sleepW*1e6), "30 µW"},
		{"Energy over 10 s sleep", fmt.Sprintf("%.0f µJ", energy*1e6), "-"},
		{"Sleep-only battery life", fmt.Sprintf("%.1f years", power.Years(batt.Lifetime(sleepW))), "-"},
	}
	text := RenderTable([]string{"Quantity", "Measured", "Paper"}, rows)
	return &Result{ID: "sleep", Title: "Sleep power", Text: text,
		Metrics: map[string]float64{
			"sleep_uW":      sleepW * 1e6,
			"sleep_years":   power.Years(batt.Lifetime(sleepW)),
			"energy_10s_uJ": energy * 1e6,
		}}, nil
}

// LoRaPacketPower measures §5.2's packet power: TX at SF9/BW500/14 dBm and
// RX, with the radio's share broken out.
func LoRaPacketPower(cfg Config) (*Result, error) {
	p := lora.Params{SF: 9, BW: 500e3, CR: lora.CR45, PreambleLen: 10, SyncWord: 0x12,
		CRC: true, OSR: 1}
	tx := core.New(core.Config{ID: 1})
	if err := tx.ConfigureLoRa(p); err != nil {
		return nil, err
	}
	air, err := tx.TransmitLoRa(make([]byte, 16), 14)
	if err != nil {
		return nil, err
	}
	txTotal := tx.SystemPowerW()
	txRadio := tx.PMU.Ledger().Power("iq-radio")

	rx := core.New(core.Config{ID: 2})
	if err := rx.ConfigureLoRa(p); err != nil {
		return nil, err
	}
	if _, err := rx.ReceiveLoRa(air); err != nil {
		return nil, err
	}
	rxTotal := rx.SystemPowerW()
	rxRadio := rx.PMU.Ledger().Power("iq-radio")

	rows := [][]string{
		{"LoRa TX total (14 dBm)", fmt.Sprintf("%.0f mW", txTotal*1e3), "287 mW"},
		{"LoRa TX radio share", fmt.Sprintf("%.0f mW", txRadio*1e3), "179 mW"},
		{"LoRa RX total", fmt.Sprintf("%.0f mW", rxTotal*1e3), "186 mW"},
		{"LoRa RX radio share", fmt.Sprintf("%.0f mW", rxRadio*1e3), "59 mW"},
	}
	text := RenderTable([]string{"Mode", "Measured", "Paper"}, rows)
	return &Result{ID: "lorapower", Title: "LoRa packet power", Text: text,
		Metrics: map[string]float64{
			"tx_total_mW": txTotal * 1e3,
			"tx_radio_mW": txRadio * 1e3,
			"rx_total_mW": rxTotal * 1e3,
			"rx_radio_mW": rxRadio * 1e3,
		}}, nil
}

// ConcurrentResources reports the §6 FPGA utilization and system power of
// the dual-configuration demodulator.
func ConcurrentResources(cfg Config) (*Result, error) {
	design := fpga.ConcurrentRXDesign(8, 8)
	d := core.New(core.Config{ID: 1})
	if _, err := d.FPGA.Configure(design); err != nil {
		return nil, err
	}
	if _, err := d.Radio.Transition(radio.StateRX); err != nil {
		return nil, err
	}
	total := d.SystemPowerW()
	rows := [][]string{
		{"FPGA LUTs", fmt.Sprintf("%d (%d%%)", design.LUTs(), design.UtilizationPct()), "17%"},
		{"System power while decoding", fmt.Sprintf("%.0f mW", total*1e3), "207 mW"},
	}
	text := RenderTable([]string{"Quantity", "Measured", "Paper"}, rows)
	return &Result{ID: "concurrentres", Title: "Concurrent demod resources", Text: text,
		Metrics: map[string]float64{
			"util_pct": float64(design.UtilizationPct()),
			"power_mW": total * 1e3,
		}}, nil
}
