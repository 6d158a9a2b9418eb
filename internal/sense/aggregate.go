package sense

import (
	"errors"
	"fmt"
	"sync"
)

// ErrBackpressure is returned when the aggregator's in-flight byte budget
// is exhausted — a slow consumer's signal to producers to back off.
// Callers detect it with errors.Is and retry; nothing is lost.
var ErrBackpressure = errors.New("sense: aggregator over its in-flight byte budget")

// DefaultBudgetBytes is the in-flight ingest budget when none is given:
// enough for thousands of outstanding 256-bin reports, small enough to
// bound the aggregator's memory regardless of producer count.
const DefaultBudgetBytes = 4 << 20

// Stats is an aggregator's ingest counter snapshot.
type Stats struct {
	// Ingested counts reports folded into the map.
	Ingested uint64 `json:"ingested"`
	// Rejected counts reports turned away by backpressure.
	Rejected uint64 `json:"rejected"`
	// Errored counts reports that failed parsing or didn't fit the grid.
	Errored uint64 `json:"errored"`
	// InflightBytes and BudgetBytes describe the admission window.
	InflightBytes int64 `json:"inflight_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
}

// Aggregator merges concurrent report streams into one occupancy Map with
// bounded memory. Admission control is a byte budget: a producer Admits
// its report's wire size before the bytes are buffered and the slot is
// Released once the report is folded in, so thousands of producers can
// push concurrently while the aggregator's working set stays under the
// budget. Determinism does not depend on arrival order — the map's
// integer-moment cells make every interleaving produce identical bits —
// so a plain mutex over the grid is both correct and reproducible.
type Aggregator struct {
	mu       sync.Mutex
	m        *Map
	budget   int64
	inflight int64
	stats    Stats
}

// NewAggregator wraps the map in an ingest service with the given
// in-flight byte budget (DefaultBudgetBytes when non-positive).
func NewAggregator(m *Map, budgetBytes int64) (*Aggregator, error) {
	if m == nil {
		return nil, fmt.Errorf("sense: aggregator needs a map")
	}
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudgetBytes
	}
	return &Aggregator{m: m, budget: budgetBytes}, nil
}

// Admit reserves n bytes of the ingest budget, or fails with
// ErrBackpressure. Every successful Admit must be paired with a Release.
func (a *Aggregator) Admit(n int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inflight+int64(n) > a.budget {
		a.stats.Rejected++
		return fmt.Errorf("%w (%d in flight + %d over %d)", ErrBackpressure, a.inflight, n, a.budget)
	}
	a.inflight += int64(n)
	return nil
}

// Release returns n admitted bytes to the budget.
func (a *Aggregator) Release(n int) {
	a.mu.Lock()
	a.inflight -= int64(n)
	if a.inflight < 0 {
		a.inflight = 0
	}
	a.mu.Unlock()
}

// IngestWire admits, parses and folds in one marshaled report — the
// whole producer path in one call. The in-process API for sweeps; the
// HTTP endpoint admits before the body read and then calls ingestAdmitted.
func (a *Aggregator) IngestWire(data []byte) error {
	if err := a.Admit(len(data)); err != nil {
		return err
	}
	defer a.Release(len(data))
	_, err := a.ingestAdmitted(data)
	return err
}

// ingestAdmitted parses and folds in one admitted report, counting a parse
// failure in Errored just like a report that does not fit the grid.
// parsed reports whether the bytes were a well-formed report, which is
// what separates a bad request from an unprocessable one.
func (a *Aggregator) ingestAdmitted(data []byte) (parsed bool, err error) {
	var r Report
	if err := r.UnmarshalBinary(data); err != nil {
		a.mu.Lock()
		a.stats.Errored++
		a.mu.Unlock()
		return false, err
	}
	return true, a.Ingest(&r)
}

// Ingest folds one parsed report into the map.
func (a *Aggregator) Ingest(r *Report) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.m.Absorb(r); err != nil {
		a.stats.Errored++
		return err
	}
	a.stats.Ingested++
	return nil
}

// MapBytes marshals the current map — the canonical aggregation result
// the determinism sweep compares across worker counts.
func (a *Aggregator) MapBytes() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.m.MarshalBinary()
}

// Summarize returns the current map's Summary.
func (a *Aggregator) Summarize() Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.m.Summarize()
}

// Stats returns the ingest counters.
func (a *Aggregator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.stats
	s.InflightBytes = a.inflight
	s.BudgetBytes = a.budget
	return s
}
