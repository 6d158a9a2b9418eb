package eval

import (
	"bytes"
	"fmt"
	"math"

	"github.com/uwsdr/tinysdr/internal/sense"
)

// SenseSweep drives the crowd-sourced spectrum sensing subsystem at fleet
// scale: thousands of mobile nodes walk the campus propagation field,
// each measuring the band with one Welch estimate per tick and reporting
// quantized spectra over the real wire format into one aggregator. The
// experiment is also the subsystem's determinism gate: the sweep runs at
// the configured pool and again at one worker, and the marshaled
// occupancy maps must be byte-identical — the scaled-up form of the
// property CI pins with unit tests.
func SenseSweep(cfg Config) (*Result, error) {
	nodes, ticks, fft := 10000, 6, 256
	if cfg.Quick {
		nodes, ticks, fft = 1000, 4, 128
	}
	world := sense.DefaultWorld()
	// The fleet covers a fixed 1.5 km stretch regardless of its size —
	// density, not reach, is what scales with crowd size.
	world.NodeStepM = 1500.0 / float64(nodes)
	const thresholdDBm = -85.0

	sw := sense.SweepConfig{
		World: world, FFTSize: fft,
		Nodes: nodes, Ticks: ticks,
		Seed: cfg.Seed, Workers: cfg.Workers,
		ThresholdDBm: thresholdDBm,
	}
	res, err := sense.Sweep(sw)
	if err != nil {
		return nil, err
	}
	one := sw
	one.Workers = 1
	serial, err := sense.Sweep(one)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(res.MapBytes, serial.MapBytes) {
		return nil, fmt.Errorf("eval: sense occupancy map differs between the configured pool and 1 worker")
	}

	var m sense.Map
	if err := m.UnmarshalBinary(res.MapBytes); err != nil {
		return nil, err
	}
	sum := m.Summarize()

	rows := [][]string{
		{"Fleet", fmt.Sprintf("%d nodes × %d ticks (%d-bin spectra)", nodes, ticks, fft)},
		{"Reports ingested", fmt.Sprintf("%d (%.2f MiB over the wire)", res.Reports, float64(res.WireBytes)/(1<<20))},
		{"Occupancy map", fmt.Sprintf("%d×%d cells, %d bytes marshaled", m.Ticks, m.Bins, len(res.MapBytes))},
		{"Determinism", "map byte-identical at the configured pool and at 1 worker"},
		{"Mean occupancy", fmt.Sprintf("%.3f at %g dBm threshold", sum.Occupancy, thresholdDBm)},
		{"Peak power seen", fmt.Sprintf("%.2f dBm", sum.PeakDBm)},
	}
	metrics := map[string]float64{
		"nodes":      float64(nodes),
		"reports":    float64(res.Reports),
		"wire_bytes": float64(res.WireBytes),
		"map_bytes":  float64(len(res.MapBytes)),
		"occupancy":  sum.Occupancy,
		"peak_dbm":   sum.PeakDBm,
	}
	// Per-emitter view: occupancy in each emitter's own bin, averaged over
	// ticks — the map column a regulator would read to find the transmitter.
	for j, e := range world.Emitters {
		bin := fft/2 + int(math.Round(e.FreqHz/world.SampleRate*float64(fft)))
		var occ float64
		for tick := 0; tick < m.Ticks; tick++ {
			occ += m.Cell(tick, bin).Occupancy()
		}
		occ /= float64(m.Ticks)
		rows = append(rows, []string{
			fmt.Sprintf("Emitter %d (%+.0f kHz, duty %.1f)", j, e.FreqHz/1e3, e.Duty),
			fmt.Sprintf("bin %d occupancy %.3f", bin, occ),
		})
		metrics[fmt.Sprintf("emitter%d_occ", j)] = occ
	}

	text := RenderTable([]string{"Quantity", "Value"}, rows)
	return &Result{
		ID: "sense", Title: "Crowd-sourced spectrum sensing sweep",
		Text: text, Metrics: metrics,
	}, nil
}
