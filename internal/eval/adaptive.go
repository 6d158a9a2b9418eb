package eval

import "math"

// This file implements the deterministic sequential-stopping mode of the
// Monte-Carlo harness. A sweep point's trials run in fixed-size chunks, and
// the point stops as soon as the Wilson score interval around its measured
// error rate is tighter than a configured epsilon — pinned points (PER 0 or
// 1) therefore stop at the minimum chunk count, while points on the curve's
// knee keep their full budget. The stopping decision is a pure function of
// the chunk results, which in turn derive only from (seed, point, trial
// index) — never from scheduling — so adaptive curves are bit-identical at
// any worker count, and every adaptive point is an exact prefix of the
// full-budget run of the same point.

// Default sequential-stopping parameters. The epsilon is deliberately loose
// (a ±0.2 PER bound): the adaptive mode exists to make sweep campaigns
// tractable, and points that matter — where the estimate is genuinely
// uncertain — keep burning budget until it runs out. Tighten -eps (or
// disable -adaptive) for publication-grade curves.
const (
	// DefaultEps is the Wilson half-width target when Adaptive.Eps is unset.
	DefaultEps = 0.2
	// DefaultChunk is the number of trials run between stopping checks.
	// With the default epsilon, a saturated point stops after exactly one
	// chunk.
	DefaultChunk = 8
	// DefaultZ is the normal quantile of the stopping interval: 95%
	// confidence.
	DefaultZ = 1.96
)

// Adaptive configures the sequential-stopping Monte-Carlo mode (the CLI's
// -adaptive / -eps flags). The zero value disables it: every trial of every
// point runs, exactly as the fixed-budget harness always has.
type Adaptive struct {
	// Enabled turns sequential stopping on.
	Enabled bool
	// Eps is the Wilson-interval half-width at which a point stops
	// early; <= 0 selects DefaultEps.
	Eps float64
}

func (a Adaptive) eps() float64 {
	if a.Eps > 0 {
		return a.Eps
	}
	return DefaultEps
}

// WilsonHalfWidth returns the half-width of the Wilson score interval for f
// failures in n trials at normal quantile z. Unlike the Wald interval it
// stays honest at p-hat 0 or 1, which is exactly where sweep points
// saturate — the property that makes it a sound sequential-stopping bound.
func WilsonHalfWidth(f, n int, z float64) float64 {
	if n == 0 {
		return math.Inf(1)
	}
	nf := float64(n)
	p := float64(f) / nf
	z2 := z * z
	return z / (1 + z2/nf) * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
}

// MinTrials returns the trial count at which a saturated point (zero
// failures, or all failures) satisfies the stopping rule, rounded up to
// whole chunks and clamped to the budget — the floor every adaptive point
// runs, and the exact count a pinned point stops at.
func (a Adaptive) MinTrials(budget int) int {
	if !a.Enabled {
		return budget
	}
	n := DefaultChunk
	for n < budget && WilsonHalfWidth(0, n, DefaultZ) > a.eps() {
		n += DefaultChunk
	}
	if n > budget {
		n = budget
	}
	return n
}

// runRule executes up to budget Bernoulli trials through fail (trial
// indices 0..), consulting stop at every chunk boundary, and returns the
// failure count and the number of trials actually run. With Enabled false
// it runs the whole budget in one chunk — byte-identical to the historical
// fixed-budget loops. fail must depend only on its trial index (and
// whatever per-point seed the caller closed over).
func (a Adaptive) runRule(budget int, stop func(failures, n int) bool, fail func(k int) (bool, error)) (failures, n int, err error) {
	ch := budget
	if a.Enabled {
		ch = DefaultChunk
	}
	for n < budget {
		c := ch
		if n+c > budget {
			c = budget - n
		}
		for k := 0; k < c; k++ {
			bad, err := fail(n + k)
			if err != nil {
				return failures, n, err
			}
			if bad {
				failures++
			}
		}
		n += c
		if a.Enabled && stop(failures, n) {
			break
		}
	}
	return failures, n, nil
}

// run is the epsilon stopping rule: the point ends once the Wilson interval
// around its error rate is tighter than eps — the right rule for sweeps
// whose headline metrics (50%-PER knees, curve shapes) live at the same
// scale as eps.
func (a Adaptive) run(budget int, fail func(k int) (bool, error)) (failures, n int, err error) {
	eps := a.eps()
	return a.runRule(budget, func(f, n int) bool {
		return WilsonHalfWidth(f, n, DefaultZ) <= eps
	}, fail)
}

// runThreshold is the threshold-exclusion stopping rule for sweeps whose
// headline is a threshold crossing (fig10/fig11 at 10% error, fig12 at BER
// 1e-3): a point stops only when its Wilson interval excludes thr, i.e.
// its side of the crossing is statistically settled. Points bracketing the
// crossing — the ones interpolation reads — keep their full budget, so the
// reported sensitivity stays faithful to the fixed-budget figure at any
// epsilon; saturated points far from the crossing still stop at the first
// chunks. The plain eps rule would happily stop a low-rate point at an
// estimate of 0 long before it could resolve rates at thr's scale.
func (a Adaptive) runThreshold(budget int, thr float64, fail func(k int) (bool, error)) (failures, n int, err error) {
	z := DefaultZ
	return a.runRule(budget, func(f, n int) bool {
		nf := float64(n)
		z2 := z * z
		center := (float64(f)/nf + z2/(2*nf)) / (1 + z2/nf)
		half := WilsonHalfWidth(f, n, z)
		return center-half > thr || center+half < thr
	}, fail)
}

// failRate is the error-rate estimate after a run: failures over trials run.
func failRate(failures, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(failures) / float64(n)
}
