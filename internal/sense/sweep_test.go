package sense

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

func quickSweep(workers int) SweepConfig {
	return SweepConfig{
		World:        quickWorld(),
		FFTSize:      64,
		Nodes:        60,
		Ticks:        4,
		Seed:         12345,
		Workers:      workers,
		ThresholdDBm: -85,
	}
}

// TestSweepDeterministicAcrossWorkers is the PR's core acceptance
// property scaled down for unit tests: the occupancy map is byte-
// identical at 1 and 8 workers.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	one, err := Sweep(quickSweep(1))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Sweep(quickSweep(8))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.MapBytes, eight.MapBytes) {
		t.Fatal("occupancy map differs between 1 and 8 workers")
	}
	if one.Reports != 60*4 || eight.Reports != one.Reports {
		t.Fatalf("reports %d / %d", one.Reports, eight.Reports)
	}
	if one.WireBytes != int64(one.Reports*WireSize(64)) {
		t.Fatalf("wire bytes %d", one.WireBytes)
	}

	// The map reflects the sweep: full coverage, every cell counted once
	// per node.
	var m Map
	if err := m.UnmarshalBinary(one.MapBytes); err != nil {
		t.Fatal(err)
	}
	if m.Reports != uint64(one.Reports) {
		t.Fatalf("map reports %d", m.Reports)
	}
	for i := range m.Cells {
		if m.Cells[i].Count != 60 {
			t.Fatalf("cell %d count %d, want 60", i, m.Cells[i].Count)
		}
	}
	// The world has real emitters: some occupancy must show up somewhere.
	if s := m.Summarize(); !(s.Occupancy > 0) {
		t.Fatalf("sweep saw no occupancy: %+v", s)
	}
}

// TestSweepMapGolden pins the sensing pipeline's output across commits:
// the map of the CI sweep (tinysdr-sense sweep -nodes 200 -ticks 4 -fft
// 128 -out writes the same bytes) must keep this SHA-256. A change to the
// world model, the estimator or the quantizer that moves a single code
// shows up here; regenerate the digest only for a deliberate change.
func TestSweepMapGolden(t *testing.T) {
	res, err := Sweep(SweepConfig{
		World:        DefaultWorld(),
		FFTSize:      128,
		Nodes:        200,
		Ticks:        4,
		Seed:         1,
		ThresholdDBm: -85,
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "9e9a79a76ce40d88499aecd4e15602b47cb2c3882da0ac60d0693f6454a8679e"
	sum := sha256.Sum256(res.MapBytes)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("map sha256 %s, want %s", got, want)
	}
}

func TestSweepRejects(t *testing.T) {
	cfg := quickSweep(1)
	cfg.Nodes = 0
	if _, err := Sweep(cfg); err == nil {
		t.Error("zero nodes accepted")
	}
	cfg = quickSweep(1)
	cfg.FFTSize = 63
	if _, err := Sweep(cfg); err == nil {
		t.Error("bad FFT size accepted")
	}
	cfg = quickSweep(1)
	cfg.World.SampleRate = 0
	if _, err := Sweep(cfg); err == nil {
		t.Error("bad world accepted")
	}
}
