package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"
)

// TestSelfTest runs each workload for one digest cycle of ops, untraced
// and then traced, with every output check on. No op may fail, and the
// traced run must reproduce the untraced run's digest of simulated
// outputs.
func TestSelfTest(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			t.Setenv("TMPDIR", t.TempDir())
			var digests [2][]byte
			for k, traced := range []bool{false, true} {
				var tr *tracer
				if traced {
					tr = newTracer()
				}
				w, err := def.setup(7, tr)
				if err != nil {
					t.Fatal(err)
				}
				mainOps, sideOps := w.cycles()
				st := loop(w, tr, func(i int) bool { return i < mainOps })
				if err := w.close(); err != nil {
					t.Fatal(err)
				}
				if st.failed != 0 {
					t.Fatalf("traced=%v: %d of %d ops failed: %v", traced, st.failed, st.attempted, st.errs)
				}
				if st.digested != [2]int{mainOps, sideOps} {
					t.Fatalf("traced=%v: digest covers %v ops, want [%d %d]", traced, st.digested, mainOps, sideOps)
				}
				digests[k] = st.digest.Sum(nil)
				if traced {
					m := layerMetrics(tr, st)
					for _, name := range []string{"main", "side"} {
						if m[name+".count"].Value == 0 || m[name+".p50_us"].Value <= 0 {
							t.Errorf("span %s was not recorded", name)
						}
					}
				}
			}
			if !bytes.Equal(digests[0], digests[1]) {
				t.Errorf("traced digest %x, untraced %x", digests[1], digests[0])
			}
		})
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the workloads and the
// metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}

	check := func(kind string, listed []struct{ Name, Unit string }, reported map[string]metric) {
		var got []string
		for _, m := range listed {
			got = append(got, m.Name)
			if r, ok := reported[m.Name]; !ok {
				t.Errorf("%s metric %s is not reported", kind, m.Name)
			} else if r.Unit != m.Unit {
				t.Errorf("%s metric %s: unit %q, reported %q", kind, m.Name, m.Unit, r.Unit)
			}
		}
		var have []string
		for name := range reported {
			have = append(have, name)
		}
		sort.Strings(have)
		sort.Strings(got)
		if !slices.Equal(got, have) {
			t.Errorf("%s metrics listed %v, reported %v", kind, got, have)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics(&runStats{}, []float64{1}, 1))
	check("per_layer", spec.PerLayer, layerMetrics(newTracer(), &runStats{}))
}

// TestSelfTime checks that a span's self time excludes the union of its
// children, overlapping ones included.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{name: "op", parent: -1, start: 0, end: 10 * ms},
		{name: "a", parent: 0, start: 1 * ms, end: 4 * ms},
		{name: "b", parent: 0, start: 3 * ms, end: 6 * ms},
		{name: "c", parent: 2, start: 4 * ms, end: 5 * ms},
	}}
	got := tr.layers()
	for name, want := range map[string]time.Duration{"op": 5 * ms, "a": 3 * ms, "b": 2 * ms, "c": 1 * ms} {
		if got[name].self != want {
			t.Errorf("%s self %v, want %v", name, got[name].self, want)
		}
	}
}
