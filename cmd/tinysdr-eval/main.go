// Command tinysdr-eval regenerates the tables and figures of the TinySDR
// paper's evaluation (§5, §6) from the simulation models.
//
// Usage:
//
//	tinysdr-eval -list
//	tinysdr-eval -run all
//	tinysdr-eval -run fig10,fig14 -quick -seed 7
//	tinysdr-eval -run fig10,fig11 -bench-json   # machine-readable metrics
//	tinysdr-eval -run coexistence,mobility      # composed-channel sweeps
//	tinysdr-eval -run scenario -scenario "fading=rician:10,cfo=200,interferer=ble:-110"
//	tinysdr-eval -run scenario -phy backscatter # any registered PHY as the victim
//	tinysdr-eval -run all -adaptive=false       # full fixed trial budgets
//	tinysdr-eval -run scenario -eps 0.05        # tighter sequential-stopping bound
//	tinysdr-eval -run chaos -faults "crash=0.001,flashfail=0.02"  # chaos sweep
//
// Monte-Carlo sweeps fan out across all CPUs by default; -workers bounds
// the pool, and sequential stopping (-adaptive, on by default) ends a
// sweep point once its Wilson error-rate interval is settled. Results are
// bit-identical for any worker count in both modes (see PERFORMANCE.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/uwsdr/tinysdr/internal/eval"
	"github.com/uwsdr/tinysdr/internal/phy"
)

// benchEntry is one experiment's machine-readable record.
type benchEntry struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Millis  float64            `json:"wall_ms"`
	Metrics map[string]float64 `json:"metrics"`
}

// finiteMetrics drops non-finite values (some experiments use ±Inf as a
// "link failed" sentinel) so the record always encodes: encoding/json
// rejects Inf and NaN outright, which used to abort -bench-json on any
// selection including such an experiment.
func finiteMetrics(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			out[k] = v
		}
	}
	return out
}

func main() {
	list := flag.Bool("list", false, "list available experiments and exit")
	run := flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
	quick := flag.Bool("quick", false, "reduce Monte-Carlo trial counts")
	seed := flag.Int64("seed", 1, "PRNG seed for all experiments")
	workers := flag.Int("workers", 0, "Monte-Carlo worker pool size (0 = all CPUs)")
	scenarioSpec := flag.String("scenario", "",
		"composed channel scenario for the 'scenario' experiment, e.g. "+
			"\"fading=rician:10,cfo=200,drift=20,interferer=lora:-110\" "+
			"(terms: fading=rayleigh[:taps]|rician:KdB[:taps], cfo/cfojitter=Hz, "+
			"drift=ppm, interferer=PHY:dBm[:freqHz] for any registered PHY, dropout=P[:depthDB])")
	faults := flag.String("faults", "",
		"base fault spec for the 'chaos' experiment, e.g. "+
			"\"crash=0.001,flashfail=0.01,desync=0.05:4\" "+
			"(terms: crash/flashfail/bitrot/duty=P, desync/apoutage=P[:frames]; "+
			"empty selects the default mix; the sweep scales it across intensities)")
	phyName := flag.String("phy", "",
		"victim protocol for the protocol-generic experiments; any of: "+
			strings.Join(phy.Names(), ", ")+" (default lora)")
	benchJSON := flag.Bool("bench-json", false,
		"emit per-experiment wall time and headline metrics as JSON instead of rendered text")
	adaptive := flag.Bool("adaptive", true,
		"sequential-stopping Monte-Carlo: stop a sweep point once its Wilson PER bound "+
			"is tighter than -eps (bit-identical at any -workers; disable for full fixed budgets)")
	eps := flag.Float64("eps", eval.DefaultEps,
		"Wilson-interval half-width at which an -adaptive sweep point stops early "+
			"(governs the scenario/coexistence/mobility PER sweeps; the fig10/fig11/fig12 "+
			"sensitivity sweeps instead stop when the interval excludes their 10%/1e-3 threshold)")
	flag.Parse()

	if *list {
		for _, e := range eval.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		fmt.Printf("\nregistered PHYs (-phy / interferer=): %s\n", strings.Join(phy.Names(), ", "))
		return
	}
	if *phyName != "" && !phy.Registered(*phyName) {
		fmt.Fprintf(os.Stderr, "unknown -phy %q (registered: %s)\n", *phyName, strings.Join(phy.Names(), ", "))
		os.Exit(2)
	}

	var selected []eval.Experiment
	if *run == "all" {
		selected = eval.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := eval.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	if *phyName != "" {
		// Only the PHY-generic experiments consume -phy; flag a selection
		// that would silently ignore it (coexistence sweeps every PHY as
		// the interferer, mobility is the LoRa Doppler story by design).
		phyAware := false
		for _, e := range selected {
			if e.ID == "scenario" {
				phyAware = true
			}
		}
		if !phyAware {
			fmt.Fprintf(os.Stderr, "warning: -phy %s has no effect on the selected experiments (it selects the victim of -run scenario)\n", *phyName)
		}
	}

	cfg := eval.Config{
		Quick: *quick, Seed: *seed, Workers: *workers, Scenario: *scenarioSpec, PHY: *phyName,
		Adaptive: eval.Adaptive{Enabled: *adaptive, Eps: *eps},
		Faults:   *faults,
	}
	var bench []benchEntry
	for _, e := range selected {
		if !*benchJSON {
			fmt.Printf("==== %s — %s ====\n", e.ID, e.Title)
		}
		start := time.Now()
		r, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *benchJSON {
			bench = append(bench, benchEntry{
				ID:      e.ID,
				Title:   e.Title,
				Millis:  float64(time.Since(start).Microseconds()) / 1e3,
				Metrics: finiteMetrics(r.Metrics),
			})
			continue
		}
		fmt.Println(r.Text)
	}

	if *benchJSON {
		sort.Slice(bench, func(i, j int) bool { return bench[i].ID < bench[j].ID })
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{
			"seed":        *seed,
			"quick":       *quick,
			"workers":     *workers,
			"adaptive":    *adaptive,
			"eps":         *eps,
			"experiments": bench,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
