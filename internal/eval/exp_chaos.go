package eval

import (
	"fmt"
	"sort"
	"strings"

	"github.com/uwsdr/tinysdr/internal/fault"
	"github.com/uwsdr/tinysdr/internal/fleet"
)

// DefaultChaosFaults is the base fault mix the chaos sweep scales when the
// CLI does not pass -faults: a little of every injectable kind, at rates
// where the broadcast protocol keeps most of the fleet programmed at 1x
// and visibly degrades by 4x.
const DefaultChaosFaults = "crash=0.0005,flashfail=0.01,bitrot=0.002,desync=0.03:4,duty=0.05,apoutage=0.002:8"

// ChaosQuorum is the completion fraction a chaos campaign targets: the
// campaign counts as met when 80% of the fleet programs, degrading
// gracefully where an all-or-nothing campaign would abort.
const ChaosQuorum = 0.8

// Chaos sweeps fault intensity against campaign completion and repair
// air-time overhead: the base fault spec (Config.Faults or the default mix)
// is scaled across intensities and each point runs a broadcast campaign
// (multi-round NACK repair, backoff, retry budgets) against a ChaosQuorum
// quorum. The 0x point runs the same campaign with no faults, so the
// overhead column isolates what the faults — not the protocol — cost in
// air bytes.
func Chaos(cfg Config) (*Result, error) {
	base := cfg.Faults
	if base == "" {
		base = DefaultChaosFaults
	}
	bspec, err := fault.Parse(base)
	if err != nil {
		return nil, err
	}
	if !bspec.Enabled() {
		return nil, fmt.Errorf("eval: chaos needs a fault spec that injects something (got %q)", base)
	}

	scales := []float64{0, 0.25, 0.5, 1, 2, 4}
	nodes := 60
	if cfg.Quick {
		scales = []float64{0, 1, 4}
		nodes = 20
	}

	run := func(x float64) (*fleet.Result, error) {
		spec := fleet.Spec{
			Seed:      cfg.Seed,
			Nodes:     nodes,
			ShardSize: 20,
			Mode:      fleet.ModeBroadcast,
			Workers:   cfg.Workers,
			Quorum:    ChaosQuorum,
			// One fixed budget for every point, 0x included, caps how
			// hard the repair loop fights for a dying node.
			RetryBudget: 2048,
		}
		if x > 0 {
			spec.Faults = bspec.Scale(x).String()
		}
		return fleet.Run(spec)
	}

	baseline, err := run(0)
	if err != nil {
		return nil, err
	}

	var rows [][]string
	var sFrac, sOverhead Series
	sFrac.Name = "completion frac"
	sOverhead.Name = "air overhead (x)"
	metrics := map[string]float64{}
	classTotals := map[string]int{}
	for _, x := range scales {
		res := baseline
		if x > 0 {
			if res, err = run(x); err != nil {
				return nil, err
			}
		}
		overhead := float64(res.AirBytes) / float64(baseline.AirBytes)
		met := "no"
		if res.QuorumMet {
			met = "yes"
		}
		allOrNothing := "no"
		if res.Failed == 0 {
			allOrNothing = "yes"
		}
		var classes []string
		//lint:detok order-insensitive: classes are sorted below and classTotals addition commutes
		for c, n := range res.Failures {
			classes = append(classes, fmt.Sprintf("%s:%d", c, n))
			classTotals[c] += n
		}
		sort.Strings(classes)
		classCol := strings.Join(classes, " ")
		if classCol == "" {
			classCol = "-"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%gx", x),
			fmt.Sprintf("%d/%d", res.Completed, nodes),
			fmt.Sprintf("%.2f", res.CompletionFrac),
			met,
			allOrNothing,
			fmt.Sprintf("%.0f kB", float64(res.AirBytes)/1e3),
			fmt.Sprintf("%.2fx", overhead),
			classCol,
		})
		sFrac.X = append(sFrac.X, x)
		sFrac.Y = append(sFrac.Y, res.CompletionFrac)
		sOverhead.X = append(sOverhead.X, x)
		sOverhead.Y = append(sOverhead.Y, overhead)
		key := fmt.Sprintf("%g", x)
		metrics["completion_frac_"+key] = res.CompletionFrac
		metrics["air_overhead_x_"+key] = overhead
		if res.QuorumMet {
			metrics["quorum_met_"+key] = 1
		} else {
			metrics["quorum_met_"+key] = 0
		}
	}
	//lint:detok order-insensitive map-to-map transfer; metrics keys are sorted at render time
	for c, n := range classTotals {
		metrics["failures_"+strings.ReplaceAll(c, "-", "_")] = float64(n)
	}

	text := RenderXY(
		fmt.Sprintf("Chaos campaign vs fault intensity (%d nodes, quorum %.0f%%, base %s)",
			nodes, ChaosQuorum*100, bspec),
		"fault intensity (x base spec)", "completion frac / air overhead",
		[]Series{sFrac, sOverhead}, 64, 14)
	text += "\n" + RenderTable(
		[]string{"Intensity", "Completed", "Frac", "Quorum met", "All-or-nothing", "Air", "Overhead", "Failures by class"}, rows)
	text += "\nself-healing broadcast: multi-round NACK repair with backoff and retry budgets; quorum campaigns degrade gracefully where all-or-nothing campaigns abort\n"
	return &Result{ID: "chaos", Title: "Chaos: fault intensity vs completion and repair overhead", Text: text, Metrics: metrics}, nil
}
