package eval

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/fpga"
	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/lora"
	"github.com/uwsdr/tinysdr/internal/par"
	"github.com/uwsdr/tinysdr/internal/radio"
)

// fig10Params returns the §5.2 LoRa case-study configuration for a
// bandwidth: SF8, 3-byte payloads, transmitted at -13 dBm.
func fig10Params(bw float64, ideal bool) lora.Params {
	return lora.Params{
		SF: 8, BW: bw, CR: lora.CR45, PreambleLen: 10, SyncWord: 0x12,
		CRC: true, OSR: 1, Ideal: ideal,
	}
}

// measurePER runs packets through modulator -> AWGN -> receiver and returns
// the packet error rate at each RSSI. Each RSSI point is one trial of the
// parallel runner: its channel RNG derives only from (seed, point index),
// and each worker demodulates with its own scratch arena, so the PER curve
// is bit-identical for any worker count. The AWGN draw is a sequential
// stream per point, so the adaptive stopping rule's early exit measures an
// exact prefix of the full-budget point.
func measurePER(p lora.Params, rssis []float64, packets int, seed int64, workers int, ad Adaptive) ([]float64, error) {
	mod, err := lora.NewModulator(p)
	if err != nil {
		return nil, err
	}
	rxParams := p
	rxParams.Ideal = false
	floor := channel.NoiseFloorDBm(p.SampleRate(), radio.NoiseFigureDB)
	payload := []byte{0xA5, 0x5A, 0x3C}
	sig, err := mod.Modulate(payload)
	if err != nil {
		return nil, err
	}
	type perState struct {
		demod *lora.Demodulator
		rx    iq.Samples
	}
	return par.Trials(workers, len(rssis),
		func() (*perState, error) {
			demod, err := lora.NewDemodulator(rxParams)
			if err != nil {
				return nil, err
			}
			return &perState{demod: demod, rx: make(iq.Samples, len(sig))}, nil
		},
		func(s *perState, i int) (float64, error) {
			ch := channel.NewAWGN(seed+int64(i)*1000, floor)
			failures, n, err := ad.runThreshold(packets, sensThresholdPER, func(int) (bool, error) {
				rx := ch.ApplyInto(s.rx, sig, rssis[i])
				pkt, err := s.demod.Receive(rx)
				return err != nil || !pkt.CRCOK || !bytes.Equal(pkt.Payload, payload), nil
			})
			if err != nil {
				return 0, err
			}
			return failRate(failures, n), nil
		})
}

// sensThresholdPER is the error rate whose RSSI crossing defines the
// paper's sensitivity figures (Figs. 10 and 11). The adaptive runner stops
// a point only once its Wilson interval excludes this threshold, so the
// interpolated sensitivity keeps full fixed-budget fidelity.
const sensThresholdPER = 0.10

// Fig10 evaluates the LoRa modulator: tinySDR's LUT-datapath transmitter
// versus an SX1276-class ideal transmitter, both received by the SX1276
// receiver model, PER vs RSSI at SF8 with 125 and 250 kHz bandwidths.
func Fig10(cfg Config) (*Result, error) {
	packets := 120
	if cfg.Quick {
		packets = 25
	}
	var series []Series
	metrics := map[string]float64{}
	for _, bw := range []float64{250e3, 125e3} {
		sens := lora.SensitivityDBm(8, bw, radio.NoiseFigureDB)
		var rssis []float64
		for m := -5.0; m <= 7; m += 1.5 {
			rssis = append(rssis, sens+m)
		}
		for _, tx := range []struct {
			name  string
			ideal bool
		}{
			{"TinySDR", false},
			{"SX1276", true},
		} {
			p := fig10Params(bw, tx.ideal)
			pers, err := measurePER(p, rssis, packets, cfg.Seed+int64(bw), cfg.Workers, cfg.Adaptive)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("%s: SF8, BW%.0fkHz", tx.name, bw/1e3)
			series = append(series, Series{Name: name, X: rssis, Y: percent(pers)})
			s := Interpolate(rssis, pers, sensThresholdPER)
			metrics[fmt.Sprintf("sens_%s_bw%.0f_dBm", tx.name, bw/1e3)] = s
		}
	}
	text := RenderXY("LoRa modulator evaluation (PER vs RSSI)",
		"RSSI (dBm)", "PER (%)", series, 64, 16)
	text += fmt.Sprintf("\nTinySDR BW125 sensitivity (PER 10%%): %.1f dBm — paper: -126 dBm; SX1276 delta: %.1f dB\n",
		metrics["sens_TinySDR_bw125_dBm"],
		metrics["sens_TinySDR_bw125_dBm"]-metrics["sens_SX1276_bw125_dBm"])
	return &Result{ID: "fig10", Title: "LoRa modulator PER", Text: text, Metrics: metrics}, nil
}

func percent(fracs []float64) []float64 {
	out := make([]float64, len(fracs))
	for i, f := range fracs {
		out[i] = f * 100
	}
	return out
}

// Fig11 evaluates the LoRa demodulator: SX1276-class transmissions of
// random chirp symbols, demodulated by the tinySDR FPGA pipeline;
// chirp-symbol error rate vs RSSI.
func Fig11(cfg Config) (*Result, error) {
	symbols := 600
	if cfg.Quick {
		symbols = 150
	}
	var series []Series
	metrics := map[string]float64{}
	for _, bw := range []float64{250e3, 125e3} {
		p := fig10Params(bw, true) // SX1276-class transmitter
		mod, err := lora.NewModulator(p)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(bw)))
		shifts := make([]int, symbols)
		for i := range shifts {
			shifts[i] = rng.Intn(p.NumChips())
		}
		sig, err := mod.ModulateSymbols(shifts)
		if err != nil {
			return nil, err
		}
		floor := channel.NoiseFloorDBm(p.SampleRate(), radio.NoiseFigureDB)
		sens := lora.SensitivityDBm(8, bw, radio.NoiseFigureDB)
		margins := sweep(-6, 8, 1.75)
		rssis := make([]float64, len(margins))
		for i, m := range margins {
			rssis[i] = sens + m
		}
		type serState struct {
			demod *lora.Demodulator
			rx    iq.Samples
			one   []int // single-window demod scratch
		}
		symLen := len(sig) / symbols
		sers, err := par.Trials(cfg.Workers, len(margins),
			func() (*serState, error) {
				demod, err := lora.NewDemodulator(fig10Params(bw, false))
				if err != nil {
					return nil, err
				}
				return &serState{demod: demod, rx: make(iq.Samples, len(sig)), one: make([]int, 0, 1)}, nil
			},
			func(s *serState, i int) (float64, error) {
				m := margins[i]
				ch := channel.NewAWGN(cfg.Seed+int64(m*100)+int64(bw), floor)
				// Noise is applied to the whole point up front (cheap);
				// the adaptive stopper then trims the expensive part —
				// the per-symbol FFT demod. At OSR 1 the aligned windows
				// are independent, so window-at-a-time demodulation is
				// bit-identical to one DemodAlignedSymbols pass.
				rx := ch.ApplyInto(s.rx, sig, rssis[i])
				errs, n, err := cfg.Adaptive.runThreshold(symbols, sensThresholdPER, func(k int) (bool, error) {
					got := s.demod.DemodAlignedSymbolsInto(s.one, rx[k*symLen:(k+1)*symLen])
					return got[0] != shifts[k], nil
				})
				if err != nil {
					return 0, err
				}
				return failRate(errs, n), nil
			})
		if err != nil {
			return nil, err
		}
		series = append(series, Series{
			Name: fmt.Sprintf("SF8, BW%.0fkHz", bw/1e3), X: rssis, Y: percent(sers)})
		metrics[fmt.Sprintf("sens_bw%.0f_dBm", bw/1e3)] = Interpolate(rssis, sers, sensThresholdPER)
	}
	text := RenderXY("LoRa demodulator evaluation (chirp symbol error rate vs RSSI)",
		"RSSI (dBm)", "SER (%)", series, 64, 16)
	text += fmt.Sprintf("\nBW125 demodulation sensitivity (SER 10%%): %.1f dBm — paper: -126 dBm\n",
		metrics["sens_bw125_dBm"])
	return &Result{ID: "fig11", Title: "LoRa demodulator SER", Text: text, Metrics: metrics}, nil
}

// Table6 reports the FPGA resource usage of the LoRa modem per spreading
// factor from the synthesis model.
func Table6(cfg Config) (*Result, error) {
	var rows [][]string
	metrics := map[string]float64{}
	for sf := 6; sf <= 12; sf++ {
		tx := fpga.LoRaTXDesign(sf)
		rx := fpga.LoRaRXDesign(sf)
		rows = append(rows, []string{
			fmt.Sprintf("%d", sf),
			fmt.Sprintf("%d (%d%%)", tx.LUTs(), tx.UtilizationPct()),
			fmt.Sprintf("%d (%d%%)", rx.LUTs(), rx.UtilizationPct()),
		})
		metrics[fmt.Sprintf("tx_luts_sf%d", sf)] = float64(tx.LUTs())
		metrics[fmt.Sprintf("rx_luts_sf%d", sf)] = float64(rx.LUTs())
	}
	text := RenderTable([]string{"SF", "LoRa TX (LUT)", "LoRa RX (LUT)"}, rows)
	text += fmt.Sprintf("\nPart: LFE5U-25F, %d LUTs; modulator is SF-independent, demodulator grows with the FFT\n",
		fpga.TotalLUTs)
	return &Result{ID: "table6", Title: "FPGA utilization", Text: text, Metrics: metrics}, nil
}
