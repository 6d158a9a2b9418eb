package eval

import (
	"github.com/uwsdr/tinysdr/internal/par"
)

// Every sweep in the evaluation (PER vs RSSI, SER sweeps, campus node
// runs) is a set of independent trials whose randomness derives only from
// the configured seed and the trial's index — never from execution order —
// so fanning the trials across internal/par's worker pool (par.Trials,
// par.Do, sized by Config.Workers) produces bit-identical Result.Metrics
// for any worker count.
//
// The ported experiments keep their historical per-point seed formulas
// (e.g. seed+i*1000) so their curves stay seed-identical with the
// pre-parallel harness; new sweeps should derive per-trial seeds with
// TrialSeed instead.

// TrialSeed derives the deterministic RNG substream for one trial of a
// sweep, splitting (seed, trialIndex) through SplitMix64.
func TrialSeed(seed int64, trial int) int64 {
	return par.SplitSeed(seed, int64(trial))
}

// sweep enumerates the grid points of a linear parameter sweep
// (start, start+step, ... <= stop) ahead of fan-out, so trial indices and
// parameter values stay in lockstep across worker counts. The float
// accumulation matches the legacy inline loops exactly, keeping the
// ported experiments' curves seed-identical.
func sweep(start, stop, step float64) []float64 {
	var out []float64
	for v := start; v <= stop; v += step {
		out = append(out, v)
	}
	return out
}
