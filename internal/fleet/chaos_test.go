package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/uwsdr/tinysdr/internal/ota"
)

// chaosSpec is the canonical faulted campaign for the chaos tests.
func chaosSpec(workers int) Spec {
	return Spec{
		Seed: 13, Nodes: 60, Mode: ModeBroadcast, ImageKB: 8, Workers: workers,
		Faults: "crash=0.0005,flashfail=0.01,bitrot=0.002,desync=0.03:4,duty=0.05,apoutage=0.002:8",
		Quorum: 0.5,
	}
}

func TestChaosCampaignByteIdenticalAcrossWorkers(t *testing.T) {
	// The tentpole acceptance bar: a faulted campaign's full JSON report —
	// per-node outcomes, fault counters, failure classes, quorum verdict —
	// is byte-identical at 1 and 8 workers.
	run := func(workers int) []byte {
		res, err := Run(chaosSpec(workers))
		if err != nil {
			t.Fatal(err)
		}
		// Workers is part of the spec, not the outcome.
		res.Spec.Workers = 0
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	one := run(1)
	eight := run(8)
	if !bytes.Equal(one, eight) {
		t.Error("chaos campaign reports differ between 1 and 8 workers")
	}
}

func TestChaosCampaignClassifiesFailures(t *testing.T) {
	res, err := Run(chaosSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Failed != len(res.Nodes) {
		t.Errorf("completed %d + failed %d != %d nodes", res.Completed, res.Failed, len(res.Nodes))
	}
	sum := 0
	for class, n := range res.Failures {
		if class == "" {
			t.Error("failure recorded without a class")
		}
		sum += n
	}
	if sum != res.Failed {
		t.Errorf("taxonomy sums to %d, failed = %d", sum, res.Failed)
	}
	crashes, flashFaults := 0, 0
	for _, n := range res.Nodes {
		crashes += n.Crashes
		flashFaults += n.FlashFaults
	}
	if flashFaults == 0 {
		t.Error("no flash faults absorbed at flashfail=0.01 over a 60-node fleet")
	}
	_ = crashes // crash draws are rare by design; counted but not required
}

func TestQuorumDegradationMatrix(t *testing.T) {
	// Across rising fault intensity, a quorum campaign must degrade
	// gracefully: QuorumMet stays true while the completion fraction holds
	// above the bar, and the all-or-nothing criterion (Failed == 0) fails
	// first. Monotone completion is not required (fault draws differ per
	// intensity), but the bookkeeping must stay consistent at every point.
	base := "flashfail=0.01,desync=0.03:4,duty=0.05"
	cases := []struct {
		faults string
		quorum float64
	}{
		{"", 0.9},
		{base, 0.5},
		{"flashfail=0.02,desync=0.06:4,duty=0.1", 0.5},
		{"flashfail=0.04,desync=0.12:4,duty=0.2", 0.25},
	}
	for _, c := range cases {
		spec := Spec{
			Seed: 5, Nodes: 20, Mode: ModeBroadcast, ImageKB: 8,
			Faults: c.faults, Quorum: c.quorum, RetryBudget: 1024,
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("faults %q: %v", c.faults, err)
		}
		wantMet := res.CompletionFrac >= c.quorum
		if res.QuorumMet != wantMet {
			t.Errorf("faults %q: QuorumMet = %v at completion %.2f, quorum %.2f",
				c.faults, res.QuorumMet, res.CompletionFrac, c.quorum)
		}
		if res.Failed == 0 != (res.CompletionFrac == 1) {
			t.Errorf("faults %q: failed %d vs completion %.2f inconsistent",
				c.faults, res.Failed, res.CompletionFrac)
		}
	}

	// The degradation claim itself: at an intensity where all-or-nothing
	// aborts (failures exist), the quorum campaign still counts as met.
	res, err := Run(Spec{
		Seed: 13, Nodes: 60, Mode: ModeBroadcast, ImageKB: 8,
		Faults: "crash=0.0005,flashfail=0.01,bitrot=0.002,desync=0.03:4,duty=0.05,apoutage=0.002:8",
		Quorum: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Skip("no failures at this intensity; strengthen the spec")
	}
	if !res.QuorumMet {
		t.Errorf("quorum campaign not met at completion %.2f", res.CompletionFrac)
	}
}

func TestHealingDisabledKeepsLegacyResults(t *testing.T) {
	// A quorum only judges the finished campaign: setting it alone must
	// leave every per-node result byte-identical to a spec without one.
	base, err := Run(smallSpec(40, ModeBroadcast, 0))
	if err != nil {
		t.Fatal(err)
	}
	withFields := smallSpec(40, ModeBroadcast, 0)
	withFields.Quorum = 0.9
	quorumOnly, err := Run(withFields)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(base.Nodes)
	b, _ := json.Marshal(quorumOnly.Nodes)
	if !bytes.Equal(a, b) {
		t.Error("a quorum-only spec changed per-node results")
	}
}

func TestChaosSpecValidation(t *testing.T) {
	bad := []Spec{
		{Nodes: 10, Faults: "warp=1"},
		{Nodes: 10, Faults: "crash=2"},
		{Nodes: 10, Quorum: 1.5},
		{Nodes: 10, Quorum: -0.1},
		{Nodes: 10, RetryBudget: -1},
		{Nodes: 10, Mode: ModeUnicast, Faults: "crash=0.01"},
		{Nodes: 10, Mode: ModeUnicast, RetryBudget: 9},
	}
	for _, s := range bad {
		if _, err := Run(s); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, chaosSpec(1))
	if err == nil {
		t.Fatal("canceled campaign ran to completion")
	}
	if !strings.Contains(err.Error(), "canceled") && !strings.Contains(err.Error(), ota.ErrCanceled.Error()) {
		t.Errorf("cancellation error %q", err)
	}
}

func TestUnicastFailureClassification(t *testing.T) {
	// Unicast failures (link retries exhausted) must classify as
	// unreachable in the taxonomy maps.
	res, err := Run(Spec{Seed: 2, Nodes: 40, ShardSize: 40, Mode: ModeUnicast, ImageKB: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Nodes {
		if n.Err != "" && n.Class != string(ota.FailUnreachable) {
			t.Errorf("node %d class %q, want %q", n.ID, n.Class, ota.FailUnreachable)
		}
	}
}
