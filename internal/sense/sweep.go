package sense

import (
	"fmt"

	"github.com/uwsdr/tinysdr/internal/par"
)

// SweepConfig drives a simulated sensing campaign: Nodes mobile sensors
// measuring Ticks intervals of the World, reports crossing the real wire
// format into one aggregator.
type SweepConfig struct {
	// World is the shared RF environment.
	World World
	// FFTSize is each sensor's spectral resolution (power of two).
	FFTSize int
	// Nodes and Ticks set the campaign size: Nodes×Ticks reports.
	Nodes, Ticks int
	// Seed derives every measurement; same seed, same map bits.
	Seed int64
	// Workers sizes the pool; 0 means all CPUs (par.Trials). The result
	// is byte-identical at any worker count.
	Workers int
	// ThresholdDBm is the occupancy decision threshold.
	ThresholdDBm float64
}

// SweepResult is a campaign's outcome.
type SweepResult struct {
	// MapBytes is the canonical marshaled occupancy map — the bytes the
	// determinism gate compares across worker counts.
	MapBytes []byte
	// Reports is how many reports were ingested (Nodes×Ticks).
	Reports int
	// WireBytes is the total marshaled report volume that crossed the
	// ingest path.
	WireBytes int64
}

// Sweep runs the campaign: each worker owns one Sensor and serves nodes
// from the shared par pool, marshaling every (node, tick) report through
// the wire format into the aggregator — the same bytes a remote node
// would POST. Reports are pure functions of (seed, node, tick) and map
// cells are order-free integer moments, so the returned map is
// bit-reproducible at any worker count.
func Sweep(cfg SweepConfig) (*SweepResult, error) {
	if cfg.Nodes < 1 || cfg.Ticks < 1 {
		return nil, fmt.Errorf("sense: sweep of %d nodes × %d ticks", cfg.Nodes, cfg.Ticks)
	}
	m, err := NewMap(cfg.Ticks, cfg.FFTSize, cfg.World.SampleRate, cfg.ThresholdDBm)
	if err != nil {
		return nil, err
	}
	// The sweep's producers are lock-step with ingestion (each worker
	// folds its report in before measuring the next), so the budget only
	// needs one in-flight report per worker; size it generously.
	budget := int64(WireSize(cfg.FFTSize)) * int64(par.ResolveWorkers(cfg.Workers)+1) * 2
	agg, err := NewAggregator(m, budget)
	if err != nil {
		return nil, err
	}

	bytesPerNode, err := par.Trials(cfg.Workers, cfg.Nodes,
		func() (*Sensor, error) { return NewSensor(&cfg.World, cfg.FFTSize, cfg.Seed) },
		func(s *Sensor, node int) (int64, error) {
			var total int64
			for tick := 0; tick < cfg.Ticks; tick++ {
				wire, err := s.Measure(node, tick).MarshalBinary()
				if err != nil {
					return 0, fmt.Errorf("sense: node %d tick %d: %w", node, tick, err)
				}
				if err := agg.IngestWire(wire); err != nil {
					return 0, fmt.Errorf("sense: node %d tick %d: %w", node, tick, err)
				}
				total += int64(len(wire))
			}
			return total, nil
		})
	if err != nil {
		return nil, err
	}
	var wireBytes int64
	for _, b := range bytesPerNode {
		wireBytes += b
	}
	mapBytes, err := agg.MapBytes()
	if err != nil {
		return nil, err
	}
	return &SweepResult{
		MapBytes:  mapBytes,
		Reports:   cfg.Nodes * cfg.Ticks,
		WireBytes: wireBytes,
	}, nil
}
