package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestTrialsPositionalResults(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		got, err := Trials(workers, 50,
			func() (int, error) { return 0, nil },
			func(_ int, trial int) (int, error) { return trial * 2, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			if r != i*2 {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, r, i*2)
			}
		}
	}
}

func TestTrialsEveryTrialRunsOnError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ran := make([]bool, 20)
		_, err := Do(workers, 20, func(trial int) (int, error) {
			ran[trial] = true
			if trial == 5 || trial == 2 {
				return 0, fmt.Errorf("trial %d failed", trial)
			}
			return trial, nil
		})
		if err == nil || err.Error() != "trial 2 failed" {
			t.Fatalf("workers=%d: err = %v, want lowest-index trial 2", workers, err)
		}
		for i, r := range ran {
			if !r {
				t.Fatalf("workers=%d: trial %d never ran", workers, i)
			}
		}
	}
}

func TestTrialsNewStateFailure(t *testing.T) {
	_, err := Trials(4, 10,
		func() (int, error) { return 0, fmt.Errorf("no state") },
		func(int, int) (int, error) { return 0, nil })
	if err == nil || err.Error() != "no state" {
		t.Fatalf("err = %v, want state-construction failure", err)
	}
}

func TestTrialsClampsWorkers(t *testing.T) {
	got, err := Do(-5, 3, func(trial int) (int, error) { return trial, nil })
	if err != nil || len(got) != 3 {
		t.Fatalf("got %v, %v", got, err)
	}
	if empty, err := Do(8, 0, func(int) (int, error) { return 0, fmt.Errorf("must not run") }); err != nil || len(empty) != 0 {
		t.Fatalf("n=0: got %v, %v", empty, err)
	}
}

// TestTrialsZeroWorkersMeansAllCPUs pins the one pool-size rule: workers
// ≤ 0 runs min(NumCPU, n) workers, each with its own state.
func TestTrialsZeroWorkersMeansAllCPUs(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("one CPU: all CPUs and one worker are the same pool")
	}
	const n = 64
	var states atomic.Int64
	_, err := Trials(0, n,
		func() (int, error) { states.Add(1); return 0, nil },
		func(int, int) (int, error) { return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got, want := states.Load(), int64(min(runtime.NumCPU(), n)); got != want {
		t.Errorf("Trials(0, %d) built %d worker states, want %d", n, got, want)
	}
}
