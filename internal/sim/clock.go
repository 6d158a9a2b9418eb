// Package sim provides the simulated time base shared by the tinySDR
// hardware models. All latency and energy results in the evaluation are
// integrals over this clock, never over wall time, so every experiment is
// deterministic and independent of host speed.
package sim

import (
	"fmt"
	"time"
)

// Clock is a monotonically advancing simulated clock. The zero value starts
// at t=0 and is ready to use.
type Clock struct {
	now time.Duration
}

// NewClock returns a clock starting at t=0.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulated time.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d. It panics if d is negative: simulated
// hardware cannot travel backwards in time, and a negative delta always
// indicates a model bug.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: clock advanced by negative duration %v", d))
	}
	c.now += d
}

// AdvanceTo moves the clock to absolute time t, which must not be in the past.
func (c *Clock) AdvanceTo(t time.Duration) {
	if t < c.now {
		panic(fmt.Sprintf("sim: clock moved backwards from %v to %v", c.now, t))
	}
	c.now = t
}
