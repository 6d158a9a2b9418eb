package eval

import (
	"fmt"
	"sort"
	"testing"

	"github.com/uwsdr/tinysdr/internal/par"
)

func TestSplitSeedDecorrelates(t *testing.T) {
	seen := map[int64]bool{}
	for trial := 0; trial < 1000; trial++ {
		s := TrialSeed(1, trial)
		if seen[s] {
			t.Fatalf("TrialSeed collision at trial %d", trial)
		}
		seen[s] = true
	}
	if TrialSeed(1, 0) == TrialSeed(2, 0) {
		t.Error("different parents must give different substreams")
	}
	if TrialSeed(1, 5) != par.SplitSeed(1, 5) {
		t.Error("TrialSeed must be the SplitSeed substream")
	}
}

func TestSweepEnumeration(t *testing.T) {
	got := sweep(-6, 8, 1.75)
	if len(got) == 0 || got[0] != -6 {
		t.Fatalf("sweep start = %v", got)
	}
	// Must match the legacy inline loop exactly, including float
	// accumulation, so ported experiments reproduce seed-identical curves.
	var want []float64
	for m := -6.0; m <= 8; m += 1.75 {
		want = append(want, m)
	}
	if len(got) != len(want) {
		t.Fatalf("sweep has %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// metricsFingerprint renders a metrics map deterministically for
// byte-identical comparison.
func metricsFingerprint(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%x;", k, m[k])
	}
	return s
}

// TestParallelRunnerDeterministic is the tentpole acceptance test: the
// ported experiments must produce byte-identical Result.Metrics for 1, 4
// and 8 workers at a fixed seed.
func TestParallelRunnerDeterministic(t *testing.T) {
	for _, id := range []string{"fig11", "fig12", "fig15b"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		var want string
		var wantText string
		for _, workers := range []int{1, 4, 8} {
			r, err := e.Run(Config{Quick: true, Seed: 1, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", id, workers, err)
			}
			got := metricsFingerprint(r.Metrics)
			if workers == 1 {
				want, wantText = got, r.Text
				continue
			}
			if got != want {
				t.Errorf("%s: metrics differ between 1 and %d workers:\n  1: %s\n  %d: %s",
					id, workers, want, workers, got)
			}
			if r.Text != wantText {
				t.Errorf("%s: rendered text differs between 1 and %d workers", id, workers)
			}
		}
	}
}

// TestFig14DeterministicAcrossWorkers covers the campus fleet fan-out.
func TestFig14DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fig14 is the slowest experiment")
	}
	e, _ := ByID("fig14")
	var want string
	for _, workers := range []int{1, 8} {
		r, err := e.Run(Config{Quick: true, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := metricsFingerprint(r.Metrics)
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("fig14 metrics differ between 1 and %d workers:\n  %s\n  %s", workers, want, got)
		}
	}
}
