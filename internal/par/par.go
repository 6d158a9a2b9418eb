// Package par provides the deterministic worker-pool primitive shared by
// the Monte-Carlo eval runner and the testbed fleet programmer.
//
// The contract: trials are claimed in index order from an atomic counter,
// each worker owns private state, results are stored positionally, every
// trial runs even after a failure, and the lowest-index error wins — so
// the output (results and error alike) is independent of the worker count
// and of goroutine scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ResolveWorkers maps a configured pool size to a concrete one: positive
// values pass through, anything else means all CPUs. Trials and Do apply
// it themselves, so callers pass a configured size (eval.Config.Workers,
// fleet.Spec.Workers) straight through; call it only to size something
// else by the pool.
func ResolveWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.NumCPU()
}

// SplitSeed derives a decorrelated child seed from a parent seed and a
// stream index using the SplitMix64 finalizer. Monte-Carlo trials that
// need fresh randomness draw their own substream from (seed, trialIndex)
// — see eval.TrialSeed — so results stay bit-reproducible regardless of
// how trials are scheduled across workers.
func SplitSeed(seed, stream int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Trials executes fn for trials 0..n-1 across a worker pool of the given
// size, clamped to n; workers ≤ 0 means all CPUs, as in ResolveWorkers.
// Each worker constructs its own state with newState — single-goroutine
// objects like demodulator scratch arenas get a private deterministic
// copy per worker. fn must depend only on (state, trial). On failure the
// error of the lowest trial index is returned and the results slice is
// nil.
func Trials[S, R any](workers, n int, newState func() (S, error), fn func(state S, trial int) (R, error)) ([]R, error) {
	results := make([]R, n)
	if n == 0 {
		return results, nil
	}
	workers = min(ResolveWorkers(workers), n)

	var next atomic.Int64
	var mu sync.Mutex
	var errTrial int
	var firstErr error
	record := func(trial int, err error) {
		mu.Lock()
		if firstErr == nil || trial < errTrial {
			errTrial, firstErr = trial, err
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state, err := newState()
			if err != nil {
				record(0, err)
				return
			}
			// Workers record failures and keep claiming: every trial
			// runs regardless of scheduling, so the reported
			// lowest-index error is independent of the worker count.
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r, err := fn(state, i)
				if err != nil {
					record(i, err)
					continue
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// Do is Trials for stateless trial bodies.
func Do[R any](workers, n int, fn func(trial int) (R, error)) ([]R, error) {
	return Trials(workers, n, func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, trial int) (R, error) { return fn(trial) })
}
