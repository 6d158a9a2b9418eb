package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"

	"github.com/uwsdr/tinysdr/internal/fleet"
)

// FleetCrash is the control-plane chaos harness: it kill-and-restarts the
// journal-backed fleet server at every reachable journal-append boundary
// of a campaign's lifecycle and verifies that no crash point can lose a
// campaign or corrupt its result. For each crash point k the harness arms
// the server's deterministic kill switch (die immediately after the k-th
// journal record), schedules the reference campaign, lets the crash fire
// mid-execution, then reopens the state dir exactly as a restarted
// process would and waits the recovered campaign out. Three invariants
// are scored, and all must hold at every point:
//
//	survived   the campaign exists after restart and ends done/failed/
//	           canceled — never lost, never wedged
//	bit-equal  the recovered Result is byte-identical to an uninterrupted
//	           run of the same spec (the journal resume seam adds nothing
//	           and loses nothing)
//	min work   recovery re-executes only shards the journal does not
//	           already hold
//
// A final round crashes a server running several campaigns at once and
// requires every one of them to survive to its bit-identical result.
func FleetCrash(cfg Config) (*Result, error) {
	spec := fleet.Spec{
		Seed:      cfg.Seed,
		Nodes:     80,
		ShardSize: 20,
		Mode:      fleet.ModeBroadcast,
		Workers:   cfg.Workers,
	}
	if cfg.Quick {
		spec.Nodes = 40
	}
	shards := (spec.Nodes + spec.ShardSize - 1) / spec.ShardSize
	// Journal appends of one uninterrupted campaign: created, started, one
	// per shard, done. Crashing after the last append is a completed
	// campaign; every earlier point interrupts it somewhere real.
	appends := shards + 3

	golden, err := fleet.Run(spec)
	if err != nil {
		return nil, err
	}
	goldenJSON, err := json.Marshal(golden)
	if err != nil {
		return nil, err
	}

	var rows [][]string
	metrics := map[string]float64{}
	survived, bitEqual := 0, 0
	reexecuted := 0
	for k := 1; k <= appends; k++ {
		row, err := crashOnce(spec, k, goldenJSON)
		if err != nil {
			return nil, fmt.Errorf("eval: crash point %d: %w", k, err)
		}
		if row.survived {
			survived++
		}
		if row.bitEqual {
			bitEqual++
		}
		reexecuted += row.rerun
		rows = append(rows, []string{
			fmt.Sprintf("%d/%d", k, appends),
			row.phase,
			fmt.Sprintf("%d", row.shardsJournaled),
			fmt.Sprintf("%d", row.rerun),
			yesNo(row.survived),
			yesNo(row.bitEqual),
		})
	}
	metrics["crash_points"] = float64(appends)
	metrics["survived"] = float64(survived)
	metrics["bit_equal"] = float64(bitEqual)
	metrics["shards_reexecuted"] = float64(reexecuted)
	// The minimum possible re-execution: a crash between shard boundaries
	// loses at most the shards not yet journaled, summed over the sweep.
	minRerun := 0
	for k := 1; k <= appends; k++ {
		minRerun += shards - shardsJournaledAt(k, shards)
	}
	metrics["shards_reexecuted_min"] = float64(minRerun)

	multi, err := crashMultiCampaign(cfg, spec)
	if err != nil {
		return nil, err
	}
	metrics["multi_campaigns"] = float64(multi.total)
	metrics["multi_survived"] = float64(multi.survived)
	metrics["multi_bit_equal"] = float64(multi.bitEqual)

	text := RenderTable(
		[]string{"Crash after", "Phase", "Shards journaled", "Shards re-run", "Survived", "Bit-equal"}, rows)
	text += fmt.Sprintf(
		"\n%d-shard campaign, kill -9 after every journal append: %d/%d survived, %d/%d bit-equal, %d shards re-executed (floor %d)\n",
		shards, survived, appends, bitEqual, appends, reexecuted, minRerun)
	text += fmt.Sprintf(
		"multi-campaign round: %d campaigns through one crash, %d survived, %d bit-equal\n",
		multi.total, multi.survived, multi.bitEqual)
	if survived != appends || bitEqual != appends ||
		multi.survived != multi.total || multi.bitEqual != multi.total {
		return nil, fmt.Errorf("eval: fleetcrash invariant violated:\n%s", text)
	}
	return &Result{
		ID:      "fleetcrash",
		Title:   "Fleet crash harness: campaign durability across control-plane kills",
		Text:    text,
		Metrics: metrics,
	}, nil
}

type crashRow struct {
	phase           string
	shardsJournaled int
	rerun           int
	survived        bool
	bitEqual        bool
}

// shardsJournaledAt maps a crash point (appends so far) to how many
// shard-done records the journal holds: appends 1 and 2 are created and
// started, then one shard per append until done.
func shardsJournaledAt(k, shards int) int {
	done := k - 2
	if done < 0 {
		done = 0
	}
	if done > shards {
		done = shards
	}
	return done
}

func crashPhase(k, shards int) string {
	switch {
	case k == 1:
		return "after created"
	case k == 2:
		return "after started"
	case k <= shards+2:
		return fmt.Sprintf("after shard %d", k-3)
	default:
		return "after done"
	}
}

// crashOnce runs one kill/restart cycle at crash point k and scores it.
func crashOnce(spec fleet.Spec, k int, goldenJSON []byte) (crashRow, error) {
	shards := (spec.Nodes + spec.ShardSize - 1) / spec.ShardSize
	row := crashRow{phase: crashPhase(k, shards)}
	dir, err := os.MkdirTemp("", "tinysdr-fleetcrash")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)

	s1, err := fleet.OpenServer(dir)
	if err != nil {
		return row, err
	}
	s1.CrashAfterAppends(k)
	c, err := s1.Create(spec)
	if err != nil {
		return row, err
	}
	<-s1.Crashed()

	s2, err := fleet.OpenServer(dir)
	if err != nil {
		return row, fmt.Errorf("recovering state dir: %w", err)
	}
	defer s2.Drain(context.Background())
	recovered, ok := s2.Get(c.ID)
	if !ok {
		return row, nil // lost: survived stays false
	}
	row.shardsJournaled = shardsJournaledAt(k, shards)
	if recovered.Status != fleet.StatusDone {
		// Still in flight: the journaled shard count is the resume point.
		row.shardsJournaled = recovered.ShardsDone
	}
	row.rerun = shards - row.shardsJournaled
	if row.rerun < 0 {
		row.rerun = 0
	}
	fin, err := s2.Wait(context.Background(), c.ID)
	if err != nil {
		return row, err
	}
	switch fin.Status {
	case fleet.StatusDone, fleet.StatusFailed, fleet.StatusCanceled:
		row.survived = true
	}
	if fin.Status == fleet.StatusDone && fin.Result != nil {
		got, err := json.Marshal(fin.Result)
		if err != nil {
			return row, err
		}
		row.bitEqual = bytes.Equal(got, goldenJSON)
	}
	return row, nil
}

type multiRow struct{ total, survived, bitEqual int }

// crashMultiCampaign schedules several campaigns on one server, kills it
// mid-stream, and requires every campaign — running, queued, or done —
// to survive recovery to its bit-identical result.
func crashMultiCampaign(cfg Config, base fleet.Spec) (multiRow, error) {
	n := 4
	if cfg.Quick {
		n = 3
	}
	out := multiRow{total: n}
	specs := make([]fleet.Spec, n)
	goldens := make([][]byte, n)
	for i := range specs {
		specs[i] = base
		specs[i].Seed = base.Seed + int64(i)
		res, err := fleet.Run(specs[i])
		if err != nil {
			return out, err
		}
		if goldens[i], err = json.Marshal(res); err != nil {
			return out, err
		}
	}

	dir, err := os.MkdirTemp("", "tinysdr-fleetcrash-multi")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	s1, err := fleet.OpenServer(dir)
	if err != nil {
		return out, err
	}
	// Land the kill inside the second campaign's execution: past the first
	// campaign's full journal plus the creates that race ahead of it.
	shards := (base.Nodes + base.ShardSize - 1) / base.ShardSize
	s1.CrashAfterAppends(n + (shards + 2) + 2)
	ids := make([]string, n)
	for i, spec := range specs {
		c, err := s1.Create(spec)
		if err != nil {
			return out, err
		}
		ids[i] = c.ID
	}
	<-s1.Crashed()

	s2, err := fleet.OpenServer(dir)
	if err != nil {
		return out, fmt.Errorf("recovering multi-campaign state dir: %w", err)
	}
	defer s2.Drain(context.Background())
	for i, id := range ids {
		fin, err := s2.Wait(context.Background(), id)
		if err != nil {
			return out, err
		}
		switch fin.Status {
		case fleet.StatusDone, fleet.StatusFailed, fleet.StatusCanceled:
			out.survived++
		}
		if fin.Status == fleet.StatusDone && fin.Result != nil {
			got, err := json.Marshal(fin.Result)
			if err != nil {
				return out, err
			}
			if bytes.Equal(got, goldens[i]) {
				out.bitEqual++
			}
		}
	}
	return out, nil
}
