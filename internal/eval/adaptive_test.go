package eval

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"github.com/uwsdr/tinysdr/internal/channel"
)

func TestWilsonHalfWidth(t *testing.T) {
	if !math.IsInf(WilsonHalfWidth(0, 0, DefaultZ), 1) {
		t.Error("zero trials must give an unbounded interval")
	}
	// The interval tightens monotonically with n at fixed p-hat.
	prev := math.Inf(1)
	for _, n := range []int{4, 8, 16, 64, 256} {
		w := WilsonHalfWidth(n/2, n, DefaultZ)
		if w >= prev {
			t.Errorf("half-width %v at n=%d did not shrink from %v", w, n, prev)
		}
		prev = w
	}
	// Symmetric in failures vs successes.
	if a, b := WilsonHalfWidth(2, 10, DefaultZ), WilsonHalfWidth(8, 10, DefaultZ); a != b {
		t.Errorf("asymmetric: %v vs %v", a, b)
	}
	// Saturated estimates give the tightest interval at a given n.
	if WilsonHalfWidth(0, 8, DefaultZ) >= WilsonHalfWidth(1, 8, DefaultZ) {
		t.Error("saturated interval not tighter than 1/8")
	}
}

// TestAdaptiveSaturatedStopsAtMinTrials is the satellite acceptance test:
// a point pinned at PER 0 or PER 1 stops at exactly the minimum chunk
// count — MinTrials, the first chunk boundary where even a saturated
// Wilson interval meets epsilon — while a point in the interesting region
// keeps burning budget.
func TestAdaptiveSaturatedStopsAtMinTrials(t *testing.T) {
	ad := Adaptive{Enabled: true}
	const budget = 120
	want := ad.MinTrials(budget)
	if want >= budget {
		t.Fatalf("MinTrials(%d) = %d: defaults give saturated points no early stop", budget, want)
	}
	if want%DefaultChunk != 0 {
		t.Fatalf("MinTrials %d is not whole chunks of %d", want, DefaultChunk)
	}

	for name, outcome := range map[string]bool{"all-pass": false, "all-fail": true} {
		fails, n, err := ad.run(budget, func(int) (bool, error) { return outcome, nil })
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Errorf("%s: stopped after %d trials, want exactly MinTrials %d", name, n, want)
		}
		if outcome && fails != n || !outcome && fails != 0 {
			t.Errorf("%s: %d failures in %d trials", name, fails, n)
		}
	}

	// At a tight epsilon a 50% point cannot meet the bound inside this
	// budget (it needs z²/4eps² ≈ 384 trials at eps 0.05) and must run to
	// exhaustion, while a pinned point still stops early.
	tight := Adaptive{Enabled: true, Eps: 0.05}
	flip := false
	_, n, err := tight.run(budget, func(int) (bool, error) { flip = !flip; return flip, nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != budget {
		t.Errorf("mid-curve point stopped at %d, want full budget %d", n, budget)
	}
	if _, n, _ = tight.run(budget, func(int) (bool, error) { return false, nil }); n != tight.MinTrials(budget) || n >= budget {
		t.Errorf("tight-eps saturated point ran %d trials, want MinTrials %d < budget", n, tight.MinTrials(budget))
	}

	// Disabled: the full budget runs regardless of outcome.
	off := Adaptive{}
	if _, n, _ := off.run(budget, func(int) (bool, error) { return false, nil }); n != budget {
		t.Errorf("disabled adaptive ran %d trials, want %d", n, budget)
	}
}

// TestAdaptiveIsPrefixOfFullBudget pins the determinism story end to end
// on a real link: the adaptive PER of every sweep point must be computable
// from the first MinTrials..budget packets of the full-budget run — i.e.
// the trials adaptive did run saw exactly the same losses — and the two
// estimates must agree within the configured epsilon.
func TestAdaptiveIsPrefixOfFullBudget(t *testing.T) {
	const budget = 48
	ad := Adaptive{Enabled: true, Eps: 0.25}
	state, err := newLinkState("lora")()
	if err != nil {
		t.Fatal(err)
	}
	sens := state.modem.SensitivityDBm()
	floor := state.modem.NoiseFloorDBm()
	for i, margin := range []float64{-6, -2, 0, 2, 6} {
		sc := func() *channel.Scenario {
			return channel.NewScenario(channel.NewGain(sens+margin), channel.NewNoise(floor))
		}
		seed := TrialSeed(9, i)

		// Full budget, recording every packet outcome.
		state.link = nil
		full, err := state.linkPER(sc(), seed, budget, Adaptive{})
		if err != nil {
			t.Fatal(err)
		}
		losses := make([]bool, budget)
		state.link.Rebind(sc(), seed)
		for k := 0; k < budget; k++ {
			losses[k], err = state.link.Probe(coexPayload, k)
			if err != nil {
				t.Fatal(err)
			}
		}

		// Adaptive run on a fresh binding of the same (scenario, seed).
		state.link.Rebind(sc(), seed)
		fails, n, err := ad.run(budget, func(k int) (bool, error) {
			return state.link.Probe(coexPayload, k)
		})
		if err != nil {
			t.Fatal(err)
		}

		// Prefix property: the adaptive outcomes are the full run's first n.
		prefixFails := 0
		for k := 0; k < n; k++ {
			if losses[k] {
				prefixFails++
			}
		}
		if fails != prefixFails {
			t.Errorf("margin %+.0f dB: adaptive saw %d losses in %d packets, full run's prefix has %d",
				margin, fails, n, prefixFails)
		}
		if diff := math.Abs(failRate(fails, n) - full); diff > ad.Eps {
			t.Errorf("margin %+.0f dB: adaptive PER %.3f vs full %.3f differ by %.3f > eps %.2f",
				margin, failRate(fails, n), full, diff, ad.Eps)
		}
	}
}

// TestAdaptiveSweepsDeterministicAcrossWorkers extends the PR-3 determinism
// guarantee to the sequential-stopping mode: with -adaptive on, the
// scenario-engine sweeps must serialize byte-for-byte identically at 1 and
// 8 workers — the stopping decision depends only on (seed, point, chunk
// results), never on scheduling.
func TestAdaptiveSweepsDeterministicAcrossWorkers(t *testing.T) {
	for _, id := range []string{"coexistence", "mobility", "scenario", "fig10", "fig11", "fig12"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		var want []byte
		for _, workers := range []int{1, 8} {
			cfg := Config{Quick: true, Seed: 1, Workers: workers, Adaptive: Adaptive{Enabled: true}}
			r, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", id, workers, err)
			}
			got, err := json.Marshal(r.Metrics)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if workers == 1 {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: adaptive metrics differ between 1 and %d workers:\n  1: %s\n  %d: %s",
					id, workers, want, workers, got)
			}
		}
	}
}

// TestAdaptiveCurvesAgreeWithFullBudget runs the composed-scenario RSSI
// sweep both ways and requires the headline knee metrics to agree within
// one sweep step — the curve-level consequence of every point agreeing
// within epsilon.
func TestAdaptiveCurvesAgreeWithFullBudget(t *testing.T) {
	e, ok := ByID("scenario")
	if !ok {
		t.Fatal("scenario experiment not registered")
	}
	cfg := quickCfg()
	full, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Adaptive = Adaptive{Enabled: true, Eps: 0.25}
	adapt, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const step = 2.0 // the sweep's RSSI grid spacing in dB
	for _, key := range []string{"scn_p50_dBm", "clean_p50_dBm"} {
		if diff := math.Abs(full.Metrics[key] - adapt.Metrics[key]); diff > step {
			t.Errorf("%s: full %.1f vs adaptive %.1f, differ by %.1f dB > one sweep step",
				key, full.Metrics[key], adapt.Metrics[key], diff)
		}
	}
}
