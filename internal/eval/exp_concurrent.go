package eval

import (
	"fmt"
	"math/rand"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/lora"
	"github.com/uwsdr/tinysdr/internal/lora/concurrent"
	"github.com/uwsdr/tinysdr/internal/par"
	"github.com/uwsdr/tinysdr/internal/radio"
)

// concurrentSetup builds the §6 experiment: SF8 at 125 and 250 kHz decoded
// from one 250 kHz stream.
func concurrentSetup() (p1, p2 lora.Params, rate float64) {
	p1 = lora.Params{SF: 8, BW: 125e3, CR: lora.CR45, PreambleLen: 10, SyncWord: 0x12,
		CRC: true, OSR: 1}
	p2 = p1
	p2.BW = 250e3
	return p1, p2, 250e3
}

// concurrentSER measures per-chain symbol error rates with both
// transmitters superposed at the given RSSIs.
func concurrentSER(symbols int, rssi1, rssi2 float64, seed int64) (ser1, ser2 float64, err error) {
	p1, p2, rate := concurrentSetup()
	dec, err := concurrent.NewDecoder(rate, []lora.Params{p1, p2})
	if err != nil {
		return 0, 0, err
	}
	tx1, err := concurrent.NewTransmitter(rate, p1)
	if err != nil {
		return 0, 0, err
	}
	tx2, err := concurrent.NewTransmitter(rate, p2)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	s1 := make([]int, symbols)
	s2 := make([]int, 2*symbols) // BW250 symbols are half as long
	for i := range s1 {
		s1[i] = rng.Intn(256)
	}
	for i := range s2 {
		s2[i] = rng.Intn(256)
	}
	w1, err := tx1.ModulateSymbols(s1)
	if err != nil {
		return 0, 0, err
	}
	w2, err := tx2.ModulateSymbols(s2)
	if err != nil {
		return 0, 0, err
	}
	// The transmitters are asynchronous: offset the BW250 stream by half
	// of one of its symbols so its boundaries fall mid-window for the
	// other chain, as in a real deployment.
	off2 := tx2.SymbolLen() / 2
	floor := channel.NoiseFloorDBm(rate, radio.NoiseFigureDB)
	ch := channel.NewAWGN(seed+1, floor)
	rx := ch.ApplyMulti(len(w1)+off2, []iq.Samples{w1, w2}, []float64{rssi1, rssi2}, []int{0, off2})
	got1 := dec.DemodAligned(rx)[0]
	got2 := dec.DemodAligned(rx[off2:])[1]

	count := func(got, want []int) float64 {
		errs := 0
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				errs++
			}
		}
		return float64(errs) / float64(len(want))
	}
	return count(got1, s1), count(got2, s2), nil
}

// Fig15a sweeps both concurrent transmissions at equal received power and
// reports per-configuration symbol error rates, quantifying the
// sensitivity loss relative to single-transmission demodulation.
func Fig15a(cfg Config) (*Result, error) {
	symbols := 250
	if cfg.Quick {
		symbols = 60
	}
	sens125 := lora.SensitivityDBm(8, 125e3, radio.NoiseFigureDB)
	// The experimental control: the same demodulator with the other
	// transmitter silenced gives the single-link baseline each
	// concurrent curve is compared against (the paper's Fig. 11 vs 15a).
	const off = -200 // effectively silent interferer
	// One trial per sweep point: concurrent pair plus the two single-link
	// controls, each with its own (seed, point) substream.
	type point struct{ ser1, ser2, solo1, solo2 float64 }
	margins := sweep(-8, 10, 1.75)
	pts, err := par.Do(cfg.Workers, len(margins), func(i int) (point, error) {
		m := margins[i]
		rssi := sens125 + m
		ser1, ser2, err := concurrentSER(symbols, rssi, rssi, cfg.Seed+int64(m*100))
		if err != nil {
			return point{}, err
		}
		s1, _, err := concurrentSER(symbols, rssi, off, cfg.Seed+int64(m*100)+7)
		if err != nil {
			return point{}, err
		}
		_, s2, err := concurrentSER(symbols, off, rssi, cfg.Seed+int64(m*100)+13)
		if err != nil {
			return point{}, err
		}
		return point{ser1, ser2, s1, s2}, nil
	})
	if err != nil {
		return nil, err
	}
	var x, y1, y2, solo1, solo2 []float64
	for i, p := range pts {
		x = append(x, sens125+margins[i])
		y1 = append(y1, p.ser1*100)
		y2 = append(y2, p.ser2*100)
		solo1 = append(solo1, p.solo1)
		solo2 = append(solo2, p.solo2)
	}
	series := []Series{
		{Name: "SF8, BW125kHz (concurrent)", X: x, Y: y1},
		{Name: "SF8, BW250kHz (concurrent)", X: x, Y: y2},
	}
	fracs := func(ys []float64) []float64 {
		out := make([]float64, len(ys))
		for i, v := range ys {
			out[i] = v / 100
		}
		return out
	}
	cSens125 := Interpolate(x, fracs(y1), 0.10)
	cSens250 := Interpolate(x, fracs(y2), 0.10)
	loss125 := cSens125 - Interpolate(x, solo1, 0.10)
	loss250 := cSens250 - Interpolate(x, solo2, 0.10)
	text := RenderXY("Concurrent orthogonal LoRa, equal received power (SER vs RSSI)",
		"RSSI (dBm)", "SER (%)", series, 64, 14)
	text += fmt.Sprintf("\nsensitivity loss vs single link: BW125 %.1f dB (paper ≈2 dB), BW250 %.1f dB (paper ≈0.5 dB)\n",
		loss125, loss250)
	return &Result{ID: "fig15a", Title: "Concurrent equal power", Text: text,
		Metrics: map[string]float64{
			"loss125_dB": loss125,
			"loss250_dB": loss250,
		}}, nil
}

// Fig15b fixes the BW125 transmission near its sensitivity and sweeps the
// BW250 interferer's power, showing where interference starts to dominate
// noise — the power-control requirement of §6.
func Fig15b(cfg Config) (*Result, error) {
	symbols := 250
	if cfg.Quick {
		symbols = 60
	}
	weak := lora.SensitivityDBm(8, 125e3, radio.NoiseFigureDB) + 3 // near concurrent sensitivity
	x := sweep(-130, -104, 3)
	// One seed for every point: all points share symbols and noise, so the
	// interferer power is the only thing the sweep varies.
	sers, err := par.Do(cfg.Workers, len(x), func(i int) (float64, error) {
		ser1, _, err := concurrentSER(symbols, weak, x[i], cfg.Seed)
		return ser1, err
	})
	if err != nil {
		return nil, err
	}
	y := make([]float64, len(sers))
	for i, s := range sers {
		y[i] = s * 100
	}
	series := []Series{{Name: fmt.Sprintf("SF8 BW125 @ %.0f dBm", weak), X: x, Y: y}}
	// Knee: the interferer power where SER first exceeds twice its
	// noise-dominated baseline.
	base := y[0]
	knee := x[len(x)-1]
	for i := range x {
		if y[i] > 2*base+2 {
			knee = x[i]
			break
		}
	}
	text := RenderXY("Concurrent LoRa with interference sweep (SER of weak BW125 link)",
		"interferer power (dBm)", "SER (%)", series, 64, 14)
	text += fmt.Sprintf("\nerror rate departs noise floor at ≈%.0f dBm interferer power (paper: -116 dBm)\n", knee)
	return &Result{ID: "fig15b", Title: "Concurrent interference sweep", Text: text,
		Metrics: map[string]float64{"knee_dBm": knee, "baseline_ser_pct": base}}, nil
}
