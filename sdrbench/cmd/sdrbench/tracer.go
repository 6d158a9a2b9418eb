package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// A span is one call into a layer, recorded from the benchmark's side of
// the call. Spans of one op share its op id; setup spans carry op -1.
type span struct {
	name       string
	op         int
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Duration
}

// A tracer keeps the traced run's spans in memory and writes them out when
// the run ends. A nil tracer records nothing, so every call site costs the
// untraced run one nil check.
type tracer struct {
	epoch   time.Time
	op      int
	spans   []span
	open    []int
	tallies map[string]*tally
}

// A tally counts useful outcomes against attempts for a ratio metric.
type tally struct{ hits, total float64 }

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), op: -1, tallies: map[string]*tally{}}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: t.now()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close in the reverse order
// they opened.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = t.now()
	t.open = t.open[:len(t.open)-1]
}

// add records a span whose bounds were taken elsewhere, under the innermost
// open span: the fleet cells, which only a completion hook can observe.
func (t *tracer) add(name string, start, end time.Duration) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: start, end: end})
}

// count adds hits out of total to a ratio metric.
func (t *tracer) count(name string, hits, total float64) {
	if t == nil {
		return
	}
	c := t.tallies[name]
	if c == nil {
		c = &tally{}
		t.tallies[name] = c
	}
	c.hits += hits
	c.total += total
}

// hit counts one attempt of a ratio metric, useful or not.
func (t *tracer) hit(name string, ok bool) {
	if ok {
		t.count(name, 1, 1)
	} else {
		t.count(name, 0, 1)
	}
}

// ratio returns hits over attempts, 0 when nothing was attempted.
func (t *tracer) ratio(name string) float64 {
	c := t.tallies[name]
	if c == nil || c.total == 0 {
		return 0
	}
	return c.hits / c.total
}

// layerStats is one span name's aggregate: how many spans, their summed
// self time, and every duration for the median.
type layerStats struct {
	count int
	self  time.Duration
	durs  []float64 // microseconds
}

// layers aggregates the spans of the measured ops (setup spans included)
// by name. A span's self time is its duration minus the part of it that
// its child spans cover.
func (t *tracer) layers() map[string]*layerStats {
	covered := make([]time.Duration, len(t.spans))
	reach := make([]time.Duration, len(t.spans)) // end of the children merged so far
	for _, s := range t.spans {
		if s.parent < 0 {
			continue
		}
		// Children are recorded in start order, so merging them one by
		// one against the furthest end seen gives their union.
		from := max(s.start, reach[s.parent], t.spans[s.parent].start)
		to := min(s.end, t.spans[s.parent].end)
		if to > from {
			covered[s.parent] += to - from
		}
		reach[s.parent] = max(reach[s.parent], s.end)
	}
	out := map[string]*layerStats{}
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &layerStats{}
			out[s.name] = st
		}
		d := s.end - s.start
		st.count++
		st.self += d - covered[i]
		st.durs = append(st.durs, float64(d)/float64(time.Microsecond))
	}
	return out
}

// write saves every span as CSV: name, op, parent, start_ns, end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,op,parent,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.op, s.parent, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median returns the middle of xs (the mean of the two middles for an even
// count), sorting xs in place; 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, sorting xs in place; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
