// Command tinysdr-fleet is the fleet campaign control plane: it programs
// arbitrary-size tinySDR fleets over the air, either as a one-shot CLI run
// or as an HTTP service that schedules campaigns and serves their per-node
// results as JSON.
//
// One-shot mode runs a single campaign and exits non-zero if any node
// failed (the CI fleet smoke test relies on this):
//
//	tinysdr-fleet -nodes 100 -mode broadcast -image mcu -seed 1
//	tinysdr-fleet -nodes 1000 -mode unicast -workers 8 -json
//
// Server mode exposes the campaign API; with -state-dir it is
// crash-recoverable (campaign state write-ahead journaled, interrupted
// campaigns resumed from their last completed shard on restart) and a
// SIGTERM drains gracefully — stop admitting, cut running campaigns at the
// next shard boundary, compact the journal:
//
//	tinysdr-fleet -serve :8080 -state-dir /var/lib/tinysdr-fleet
//	curl -X POST localhost:8080/campaigns -d '{"nodes":100,"mode":"broadcast","seed":1}'
//	curl localhost:8080/campaigns/c1        # status + summary
//	curl localhost:8080/campaigns/c1/nodes  # per-node results
//
// Remote mode drives the same one-shot campaign against a served control
// plane through the retrying fleet.Client — create is idempotent via the
// client-supplied -campaign-id, so the run survives a control-plane
// kill/restart mid-campaign and its output is byte-identical to the local
// one-shot run (the CI fleet-crash smoke diffs exactly that):
//
//	tinysdr-fleet -remote http://localhost:8080 -campaign-id soak -nodes 200 -seed 42 -json
//
// Campaigns are deterministic: the same spec (seed, nodes, mode, image,
// shard size) yields bit-identical per-node results at any -workers value.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"github.com/uwsdr/tinysdr/internal/eval"
	"github.com/uwsdr/tinysdr/internal/fleet"
	"github.com/uwsdr/tinysdr/internal/httpjson"
)

func main() {
	serve := flag.String("serve", "", "serve the campaign HTTP API on this address instead of running one-shot")
	stateDir := flag.String("state-dir", "", "journal campaign state under this directory (server mode): campaigns survive a crash and resume from the last completed shard")
	remote := flag.String("remote", "", "run the one-shot campaign against the control plane at this base URL via the retrying client instead of in-process")
	campaignID := flag.String("campaign-id", "", "client-supplied campaign id for -remote (the idempotency key; default cli-<seed>)")
	nodes := flag.Int("nodes", 100, "fleet size")
	mode := flag.String("mode", "broadcast", "programming protocol: broadcast or unicast")
	image := flag.String("image", "mcu", "firmware image: lora, ble, or mcu")
	imageKB := flag.Int("image-kb", 0, "MCU image size in kB (0 = the paper's 78 kB)")
	shard := flag.Int("shard", 0, "nodes per AP cell (0 = the paper's 20-node campus)")
	seed := flag.Int64("seed", 1, "campaign seed (geometry, channels, losses)")
	workers := flag.Int("workers", 0, "host worker pool (0 = all CPUs); results identical for any value")
	jsonOut := flag.Bool("json", false, "emit the full campaign result as JSON")
	faults := flag.String("faults", "",
		"deterministic fault injection spec (terms: crash/flashfail/bitrot/duty=P, "+
			"desync/apoutage=P[:frames]); broadcast mode only")
	quorum := flag.Float64("quorum", 0,
		"completion fraction at which the campaign counts as met (0 = all-or-nothing)")
	retryBudget := flag.Int("retry-budget", 0,
		"per-node repair transmission cap in broadcast mode (0 = protocol default)")
	flag.Parse()

	if *serve != "" {
		var srv *fleet.Server
		var err error
		if *stateDir != "" {
			if srv, err = fleet.OpenServer(*stateDir); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "tinysdr-fleet: serving campaign API on %s (journal: %s)\n", *serve, *stateDir)
		} else {
			srv = fleet.NewServer()
			fmt.Fprintf(os.Stderr, "tinysdr-fleet: serving campaign API on %s (in-memory)\n", *serve)
		}
		httpSrv := httpjson.NewServer(*serve, srv.Handler())
		drained := make(chan struct{})
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
		go func() {
			<-sig
			// Graceful drain: stop admitting (creates now 503), cut running
			// campaigns at their next shard boundary, compact the journal
			// if it changed and close it, then close the listener. A second
			// signal during the drain is the classic "no really, now" and
			// exits hard — the journal makes that safe.
			fmt.Fprintln(os.Stderr, "tinysdr-fleet: draining (campaigns cut at the next shard boundary)")
			go func() {
				<-sig
				fmt.Fprintln(os.Stderr, "tinysdr-fleet: second signal, exiting without drain")
				os.Exit(1)
			}()
			if err := srv.Drain(context.Background()); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			close(drained)
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = httpSrv.Shutdown(sctx)
		}()
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		<-drained
		fmt.Fprintln(os.Stderr, "tinysdr-fleet: drained")
		return
	}

	spec := fleet.Spec{
		Seed:        *seed,
		Nodes:       *nodes,
		ShardSize:   *shard,
		Mode:        fleet.Mode(*mode),
		Image:       *image,
		ImageKB:     *imageKB,
		Workers:     *workers,
		Faults:      *faults,
		Quorum:      *quorum,
		RetryBudget: *retryBudget,
	}
	var res *fleet.Result
	var err error
	if *remote != "" {
		res, err = runRemote(*remote, *campaignID, *seed, spec)
	} else {
		res, err = fleet.Run(spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		printSummary(res)
	}
	// With a quorum the campaign is met at the configured completion
	// fraction; without one QuorumMet reduces to "every node programmed",
	// preserving the historical exit behavior the CI smoke test relies on.
	if !res.QuorumMet {
		fmt.Fprintf(os.Stderr, "tinysdr-fleet: %d/%d nodes failed (completion %.2f, quorum not met)\n",
			res.Failed, len(res.Nodes), res.CompletionFrac)
		os.Exit(1)
	}
}

// runRemote drives the campaign against a served control plane through the
// retrying client. The client-supplied id makes the create idempotent, so
// the whole run — create, poll, fetch — survives a control-plane
// kill/restart and returns a Result byte-identical to the local path's.
func runRemote(base, id string, seed int64, spec fleet.Spec) (*fleet.Result, error) {
	if id == "" {
		id = fmt.Sprintf("cli-%d", seed)
	}
	cl := fleet.NewClient(base, seed)
	ctx := context.Background()
	if _, err := cl.Create(ctx, id, spec); err != nil {
		return nil, err
	}
	camp, err := cl.WaitDone(ctx, id)
	if err != nil {
		return nil, err
	}
	if camp.Status != fleet.StatusDone {
		return nil, fmt.Errorf("tinysdr-fleet: campaign %q ended %s: %s", id, camp.Status, camp.Error)
	}
	return cl.Result(ctx, id)
}

func printSummary(res *fleet.Result) {
	rows := [][]string{
		{"mode", string(res.Spec.Mode)},
		{"image", res.Spec.Image},
		{"nodes", fmt.Sprintf("%d in %d cells of %d", len(res.Nodes), res.Shards, res.Spec.ShardSize)},
		{"fleet time", fmt.Sprintf("%.1f s", res.FleetTime.Seconds())},
		{"air bytes", fmt.Sprintf("%d", res.AirBytes)},
		{"data packets", fmt.Sprintf("%d", res.DataPackets)},
		{"completed", fmt.Sprintf("%d (%.2f of fleet)", res.Completed, res.CompletionFrac)},
		{"failed", fmt.Sprintf("%d", res.Failed)},
	}
	if res.Spec.Faults != "" {
		rows = append(rows, []string{"faults", res.Spec.Faults})
	}
	if res.Spec.Quorum > 0 {
		met := "not met"
		if res.QuorumMet {
			met = "met"
		}
		rows = append(rows, []string{"quorum", fmt.Sprintf("%.2f (%s)", res.Spec.Quorum, met)})
	}
	// Failure taxonomy breakdown, stable order for scripting.
	var classes []string
	for c := range res.Failures {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		rows = append(rows, []string{"failed: " + c, fmt.Sprintf("%d", res.Failures[c])})
	}
	fmt.Print(eval.RenderTable([]string{"Campaign", ""}, rows))
	for _, n := range res.Nodes {
		if n.Err != "" {
			class := n.Class
			if class == "" {
				class = "failed"
			}
			fmt.Printf("node %d (shard %d, %.0f m, %.1f dBm) [%s]: %s\n",
				n.ID, n.Shard, n.DistanceM, n.RSSIdBm, class, n.Err)
		}
	}
}
