package eval

import (
	"fmt"
	"os"

	"github.com/uwsdr/tinysdr/internal/par"
	"github.com/uwsdr/tinysdr/internal/phy"
	"github.com/uwsdr/tinysdr/internal/sim/scenario"
	"github.com/uwsdr/tinysdr/internal/trace"
)

// TraceReplay exercises the record/replay trace store end to end as a
// cross-version A/B experiment: record the -phy victim through the
// composed -scenario channel, round-trip the capture through an on-disk
// store (Put, GC, Get), replay it at the configured worker count AND at
// one worker, and require every replayed metric to be byte-identical to
// the recorded run. The table also reports what the store holds: the
// capture's code bytes (its size on disk) and blob deduplication.
func TraceReplay(cfg Config) (*Result, error) {
	phyName := cfg.PHY
	if phyName == "" {
		phyName = "lora"
	}
	spec := cfg.Scenario
	if spec == "" {
		spec = "fading=rician:12,cfojitter=50"
	}
	packets := 16
	if cfg.Quick {
		packets = 6
	}

	tx, err := phy.New(phyName)
	if err != nil {
		return nil, err
	}
	rx, err := phy.New(phyName)
	if err != nil {
		return nil, err
	}
	parsed, err := scenario.Parse(spec)
	if err != nil {
		return nil, err
	}
	sc, err := parsed.Build(scenario.Link{
		SampleRate: rx.SampleRate(),
		RSSIdBm:    rx.SensitivityDBm() + 6,
		FloorDBm:   rx.NoiseFloorDBm(),
	})
	if err != nil {
		return nil, err
	}
	link, err := phy.Open(tx, rx, sc, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tr, err := trace.Record(link, trace.Meta{
		PHY:        phyName,
		Seed:       cfg.Seed,
		SampleRate: rx.SampleRate(),
		Bits:       13,
		Scenario:   spec,
		Payload:    []byte("tinysdr-phy-golden"),
	}, packets)
	if err != nil {
		return nil, err
	}

	// Round-trip through a throwaway on-disk store, including a GC pass
	// (which must remove nothing while the manifest is live).
	dir, err := os.MkdirTemp("", "tinysdr-trace-eval")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := trace.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	if err := store.Put("eval", tr); err != nil {
		return nil, err
	}
	removed, err := store.GC()
	if err != nil {
		return nil, err
	}
	if len(removed) != 0 {
		return nil, fmt.Errorf("eval: gc removed %d live blobs", len(removed))
	}
	stored, err := store.Get("eval")
	if err != nil {
		return nil, err
	}

	// The A/B gate proper: replay at the configured pool and at one
	// worker; Verify holds every loss flag, the failure count and the
	// RSSI bits to the recorded manifest.
	for _, workers := range []int{par.ResolveWorkers(cfg.Workers), 1} {
		if err := trace.Verify(stored, workers); err != nil {
			return nil, fmt.Errorf("eval: replay at %d workers diverged: %w", workers, err)
		}
	}
	recorded := stored.Manifest.Stats()

	rawBytes := 0
	for _, b := range stored.Blobs {
		rawBytes += len(b.Codes)
	}
	dedup := packets - len(stored.Blobs)

	rows := [][]string{
		{"Victim / scenario", fmt.Sprintf("%s / %q", phyName, spec)},
		{"Packets recorded", fmt.Sprintf("%d (PER %.3f, RSSI %.2f dBm)", recorded.Packets, recorded.PER, recorded.RSSIdBm)},
		// The rendered text must itself be worker-count independent (the
		// runner's determinism contract covers full stdout), so the row
		// does not name the resolved pool size.
		{"Replay determinism", "byte-identical at the configured pool and at 1 worker"},
		{"Raw capture", fmt.Sprintf("%d bytes in %d blobs (%d deduplicated)", rawBytes, len(stored.Blobs), dedup)},
	}
	text := RenderTable([]string{"Quantity", "Value"}, rows)
	return &Result{ID: "tracereplay", Title: "Trace record/replay A/B gate", Text: text,
		Metrics: map[string]float64{
			"packets":   float64(recorded.Packets),
			"per":       recorded.PER,
			"rssi_dBm":  recorded.RSSIdBm,
			"raw_bytes": float64(rawBytes),
			"blobs":     float64(len(stored.Blobs)),
		}}, nil
}
