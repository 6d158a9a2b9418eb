// Package power models the tinySDR power management unit: the seven power
// domains of Table 3, their regulators, an energy ledger that integrates
// per-component power over the simulated clock, and the LiPo battery used
// for lifetime projections.
//
// Every power figure in the evaluation (sleep power, Fig. 9 transmit curve,
// LoRa/BLE packet power, OTA update energy, battery lifetimes) is an output
// of this ledger, not a hard-coded answer: component models push their state
// power and the ledger integrates state x time.
package power

import (
	"fmt"
	"sort"
	"time"

	"github.com/uwsdr/tinysdr/internal/sim"
)

// Sink receives power-state updates from component models. The PMU is the
// canonical implementation; tests may substitute their own.
type Sink interface {
	// SetPower declares that the named component now draws watts.
	SetPower(component string, watts float64)
}

// Ledger integrates per-component power draw over simulated time.
type Ledger struct {
	clock *sim.Clock
	items map[string]*ledgerItem
}

type ledgerItem struct {
	power  float64       // current draw in watts
	since  time.Duration // last integration point
	energy float64       // accumulated joules
}

// NewLedger returns an empty ledger driven by the given clock.
func NewLedger(clock *sim.Clock) *Ledger {
	return &Ledger{clock: clock, items: map[string]*ledgerItem{}}
}

func (l *Ledger) sync(it *ledgerItem) {
	now := l.clock.Now()
	it.energy += it.power * (now - it.since).Seconds()
	it.since = now
}

// SetPower updates the draw of a component, integrating the energy consumed
// at its previous level first. Negative power panics: components cannot
// generate energy.
func (l *Ledger) SetPower(component string, watts float64) {
	if watts < 0 {
		panic(fmt.Sprintf("power: negative draw %v W for %s", watts, component))
	}
	it, ok := l.items[component]
	if !ok {
		it = &ledgerItem{since: l.clock.Now()}
		l.items[component] = it
	}
	l.sync(it)
	it.power = watts
}

// Power returns the current draw of a component in watts (0 if unknown).
func (l *Ledger) Power(component string) float64 {
	if it, ok := l.items[component]; ok {
		return it.power
	}
	return 0
}

// names returns the ledger's components in sorted order. Summing in a fixed
// order keeps every energy and power figure bit-reproducible: float addition
// is not associative, and Go randomizes map iteration per run.
func (l *Ledger) names() []string {
	out := make([]string, 0, len(l.items))
	for name := range l.items {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TotalPower returns the current system draw in watts.
func (l *Ledger) TotalPower() float64 {
	var sum float64
	for _, name := range l.names() {
		sum += l.items[name].power
	}
	return sum
}

// Energy returns the total joules consumed by all components.
func (l *Ledger) Energy() float64 {
	var sum float64
	for _, name := range l.names() {
		it := l.items[name]
		l.sync(it)
		sum += it.energy
	}
	return sum
}

// Reset zeroes the accumulated energy of every component, keeping current
// power levels. Use it to scope a measurement window, e.g. one OTA session.
func (l *Ledger) Reset() {
	for _, it := range l.items {
		it.energy = 0
		it.since = l.clock.Now()
	}
}

// Entry is one component's share of a ledger report.
type Entry struct {
	Component string
	PowerW    float64
	EnergyJ   float64
}

// Report returns per-component power and energy, sorted by descending energy
// then name, for the evaluation printouts.
func (l *Ledger) Report() []Entry {
	out := make([]Entry, 0, len(l.items))
	for name, it := range l.items {
		l.sync(it)
		out = append(out, Entry{Component: name, PowerW: it.power, EnergyJ: it.energy})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EnergyJ != out[j].EnergyJ {
			return out[i].EnergyJ > out[j].EnergyJ
		}
		return out[i].Component < out[j].Component
	})
	return out
}
