package main

// The campaign workload is the fleet control plane over HTTP, in the shape
// of a testbed control service: a journaled fleet.OpenServer in a temp
// state dir behind a loopback listener.
//
// The main op creates a campaign with a client-supplied id (POST
// /campaigns), waits for it with Server.Wait, and fetches its per-node
// results (GET /campaigns/{id}/nodes). Each campaign is a 40-node
// broadcast of the 78 kB MCU image over two AP cells at one worker. It is
// OTA simulation with no DSP: a CPU profile of fleet.Run on these specs
// puts flash programming at ~40%, the analytic LoRa loss model at ~16%,
// LZO decompression at ~11% and ota.BuildUpdate at ~2.5%; the traced run
// puts the POST and the wait together at ~97% of the op and the GET at
// ~3%. Completion is awaited with Server.Wait, not fleet.Client.WaitDone,
// whose 150 ms poll would quantize the latency.
//
// The benchmark runs on one P, so the server's campaign goroutine,
// started inside the POST handler, mostly runs before the client reads
// the response: the create span then holds the run and the wait is short.
// fleet.overhead_ms therefore adds the two before subtracting the run.
//
// The side op is a control-plane restart: fleet.OpenServer replays and
// compacts a fresh copy of a journal that set-up seeded with finished
// campaigns, then Drain runs. Parsing the journal file (journal.Open) is
// ~1.5% of it; the rest is decoding, re-encoding and rewriting the
// records. It reads the kind of journal the main op writes, and runs no
// campaign.
//
// Every main op runs a campaign of a fresh spec, drawn from the seed, so
// a run's latencies sample many deployments. Before the op, outside its
// timed interval, an in-process fleet.RunResumable of the same spec gives
// the result the op must reproduce byte for byte. A spec whose in-process
// run leaves a node unprogrammed (about one in 200: a far node in deep
// shadow) is skipped there, so that no op fails on the physics of its
// deployment; the skips are counted on standard error. The server moves
// to a fresh state dir every campaignRotate campaigns, which bounds the
// campaigns it retains.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/uwsdr/tinysdr/internal/fleet"
	"github.com/uwsdr/tinysdr/internal/fpga"
	"github.com/uwsdr/tinysdr/internal/journal"
	"github.com/uwsdr/tinysdr/internal/ota"
	"github.com/uwsdr/tinysdr/internal/par"
)

const (
	// seededCampaigns is how many finished campaigns set-up journals.
	seededCampaigns = 48
	// campaignRotate is how many campaigns the main server retains.
	campaignRotate = 48
	// campaignDigestOps is how many main ops the digest covers.
	campaignDigestOps = 8
	// campaignTimeout bounds any wait on the control plane.
	campaignTimeout = time.Minute
)

// campaignSpec is the campaign of the workload, seeded.
func campaignSpec(seed int64) fleet.Spec {
	return fleet.Spec{
		Seed: seed, Nodes: 40, ShardSize: 20,
		Mode: fleet.ModeBroadcast, Image: fleet.ImageMCU, ImageKB: fleet.DefaultImageKB,
		Workers: 1,
	}
}

type campaignBench struct {
	dir string

	specSeed int64 // the main ops' specs derive from it
	nextSpec int64
	// skipped counts specs the main op passed over because their
	// in-process run left a node unprogrammed.
	skipped int

	journal    []byte   // the seeded journal
	seededIDs  []string // its campaigns, in creation order
	seededJSON [][]byte // each as Server.Get returned it after seeding
	records    int      // records in the seeded journal

	srv     *fleet.Server
	gen     int // state dir generation of srv
	lb      *loopback
	created int // campaigns created on the main servers
}

func setupCampaign(seed int64, _ *tracer) (workload, error) {
	dir, err := os.MkdirTemp("", "sdrbench-campaign-")
	if err != nil {
		return nil, err
	}
	c := &campaignBench{dir: dir, specSeed: par.SplitSeed(seed, 1)}
	if err := c.build(seed); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *campaignBench) build(seed int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()

	// Seed a journal with finished campaigns.
	seedDir := filepath.Join(c.dir, "seed")
	seeder, err := fleet.OpenServer(seedDir)
	if err != nil {
		return err
	}
	for j := 0; j < seededCampaigns; j++ {
		id := fmt.Sprintf("seed-%d", j)
		if _, _, err := seeder.CreateID(id, campaignSpec(par.SplitSeed(par.SplitSeed(seed, 0), int64(j)))); err != nil {
			return err
		}
		camp, err := seeder.Wait(ctx, id)
		if err != nil {
			return err
		}
		if camp.Status != fleet.StatusDone {
			return fmt.Errorf("seeded campaign %s ended %s: %s", id, camp.Status, camp.Error)
		}
		c.seededIDs = append(c.seededIDs, id)
	}
	if err := seeder.Drain(ctx); err != nil {
		return err
	}
	for _, id := range c.seededIDs {
		camp, _ := seeder.Get(id)
		b, err := json.Marshal(camp)
		if err != nil {
			return err
		}
		c.seededJSON = append(c.seededJSON, b)
	}
	if c.journal, err = os.ReadFile(filepath.Join(seedDir, fleet.JournalName)); err != nil {
		return err
	}
	if c.records, err = c.openJournalCopy(nil); err != nil {
		return err
	}

	if c.srv, err = fleet.OpenServer(c.stateDir()); err != nil {
		return err
	}
	if c.lb, err = startLoopback(c.srv.Handler()); err != nil {
		return err
	}
	if _, err := c.mainOp(0, &op{}); err != nil {
		return fmt.Errorf("warm-up main op: %w", err)
	}
	if _, err := c.sideOp(0, &op{}); err != nil {
		return fmt.Errorf("warm-up side op: %w", err)
	}
	return nil
}

// complete reports whether a campaign programmed every node and met its
// quorum.
func complete(r *fleet.Result) bool {
	return r != nil && r.Failed == 0 && r.Completed == r.Spec.Nodes && r.QuorumMet
}

func (c *campaignBench) stateDir() string {
	return filepath.Join(c.dir, fmt.Sprintf("state-%d", c.gen))
}

// mainOp runs a campaign of the next spec through the HTTP API. It must
// end done with every node programmed, and its result and node list must
// be byte-identical to the in-process run of the same spec.
func (c *campaignBench) mainOp(_ int, o *op) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()
	spec, want, err := c.nextCampaign(ctx, o.tr)
	if err != nil {
		return 0, err
	}
	if c.created == campaignRotate {
		if err := c.rotate(ctx); err != nil {
			return 0, err
		}
	}
	c.created++
	id := fmt.Sprintf("op-%d", c.created)
	body, err := json.Marshal(struct {
		ID string `json:"id"`
		fleet.Spec
	}{id, spec})
	if err != nil {
		return 0, err
	}

	var camp *fleet.Campaign
	var nodes []byte
	created, listed := 0, 0
	o.start()
	sp := o.tr.begin("fleet.http_create")
	created, _, err = c.lb.do(http.MethodPost, "/campaigns", body)
	o.tr.end(sp)
	if err == nil && created == http.StatusCreated {
		sp = o.tr.begin("fleet.wait")
		camp, err = c.srv.Wait(ctx, id)
		o.tr.end(sp)
		if err == nil {
			sp = o.tr.begin("fleet.http_nodes")
			listed, nodes, err = c.lb.do(http.MethodGet, "/campaigns/"+id+"/nodes", nil)
			o.tr.end(sp)
		}
	}
	o.stop()
	if err != nil {
		return 0, err
	}
	if created != http.StatusCreated {
		return 0, fmt.Errorf("POST /campaigns answered %d, want %d", created, http.StatusCreated)
	}
	if listed != http.StatusOK {
		return 0, fmt.Errorf("GET nodes answered %d", listed)
	}
	if camp.Status != fleet.StatusDone || !complete(camp.Result) {
		return 0, fmt.Errorf("campaign %s ended %s without every node programmed", id, camp.Status)
	}
	got, err := json.Marshal(camp.Result)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, want) {
		return 0, fmt.Errorf("campaign %s result differs from the in-process run of its spec", id)
	}
	var nodeList []fleet.NodeResult
	if err := json.Unmarshal(nodes, &nodeList); err != nil {
		return 0, err
	}
	gotNodes, err := json.Marshal(nodeList)
	if err != nil {
		return 0, err
	}
	wantNodes, err := json.Marshal(camp.Result.Nodes)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(gotNodes, wantNodes) {
		return 0, fmt.Errorf("campaign %s node list differs from its result", id)
	}
	o.out = append(o.out, got...)
	return spec.Nodes, nil
}

// nextCampaign draws specs until one's in-process run programs every node
// and returns it with that run's result as JSON. Traced, it also splits
// the run into layers from outside: ota.BuildUpdate of the image, and
// fleet.RunResumable, whose onShard hook marks where each cell ends. A
// cell's span runs from the previous cell's end, the first from the run's
// start, so it also covers the image build that ota.build measures alone.
func (c *campaignBench) nextCampaign(ctx context.Context, tr *tracer) (fleet.Spec, []byte, error) {
	for {
		spec := campaignSpec(par.SplitSeed(c.specSeed, c.nextSpec))
		c.nextSpec++
		if tr != nil {
			img := fpga.SynthMCUFirmware(spec.ImageKB*1024, spec.Seed)
			sp := tr.begin("ota.build")
			_, err := ota.BuildUpdate(ota.TargetMCU, img)
			tr.end(sp)
			if err != nil {
				return spec, nil, err
			}
		}
		sp := tr.begin("fleet.run")
		last := time.Duration(0)
		if tr != nil {
			last = tr.now()
		}
		res, err := fleet.RunResumable(ctx, spec, nil, func(fleet.ShardResult) error {
			if tr != nil {
				now := tr.now()
				tr.add("fleet.shard", last, now)
				last = now
			}
			return nil
		})
		tr.end(sp)
		if err != nil {
			return spec, nil, err
		}
		if !complete(res) {
			c.skipped++
			continue
		}
		want, err := json.Marshal(res)
		return spec, want, err
	}
}

// rotate drains the main server and reopens it on a fresh state dir.
func (c *campaignBench) rotate(ctx context.Context) error {
	old := c.stateDir()
	if err := c.srv.Drain(ctx); err != nil {
		return err
	}
	c.gen++
	srv, err := fleet.OpenServer(c.stateDir())
	if err != nil {
		return err
	}
	c.srv = srv
	c.created = 0
	c.lb.swap(srv.Handler())
	return os.RemoveAll(old)
}

// sideOp restarts the control plane on a fresh copy of the seeded journal
// and drains it. Every seeded campaign must come back byte-identical.
func (c *campaignBench) sideOp(i int, o *op) (int, error) {
	dir := filepath.Join(c.dir, fmt.Sprintf("restart-%d", i))
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(dir, fleet.JournalName), c.journal, 0o644); err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()

	o.start()
	sp := o.tr.begin("fleet.restart")
	srv, err := fleet.OpenServer(dir)
	if err == nil {
		err = srv.Drain(ctx)
	}
	o.tr.end(sp)
	o.stop()
	if err != nil {
		return 0, err
	}
	if n := len(srv.List()); n != len(c.seededIDs) {
		return 0, fmt.Errorf("restart recovered %d campaigns, want %d", n, len(c.seededIDs))
	}
	for k, id := range c.seededIDs {
		camp, ok := srv.Get(id)
		if !ok {
			return 0, fmt.Errorf("restart lost campaign %s", id)
		}
		got, err := json.Marshal(camp)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(got, c.seededJSON[k]) {
			return 0, fmt.Errorf("restart recovered campaign %s differently", id)
		}
		o.out = append(o.out, got...)
	}
	if o.tr != nil {
		if _, err := c.openJournalCopy(o.tr); err != nil {
			return 0, err
		}
	}
	return 1, nil
}

// openJournalCopy opens a fresh copy of the seeded journal with
// journal.Open and returns its record count, which must match set-up's.
func (c *campaignBench) openJournalCopy(tr *tracer) (int, error) {
	dir, err := os.MkdirTemp(c.dir, "journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, fleet.JournalName)
	if err := os.WriteFile(path, c.journal, 0o644); err != nil {
		return 0, err
	}
	sp := tr.begin("journal.open")
	j, recs, err := journal.Open(path)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	if err := j.Close(); err != nil {
		return 0, err
	}
	if c.records != 0 && len(recs) != c.records {
		return 0, fmt.Errorf("journal copy holds %d records, want %d", len(recs), c.records)
	}
	return len(recs), nil
}

func (c *campaignBench) cycles() (int, int) { return campaignDigestOps, 1 }

func (c *campaignBench) describe() string {
	return fmt.Sprintf("seeded journal %d campaigns in %d bytes; %d specs skipped of %d drawn",
		len(c.seededIDs), len(c.journal), c.skipped, c.nextSpec)
}

func (c *campaignBench) close() error {
	var err error
	if c.lb != nil {
		err = c.lb.close()
	}
	if c.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
		defer cancel()
		if derr := c.srv.Drain(ctx); err == nil {
			err = derr
		}
	}
	if rerr := os.RemoveAll(c.dir); err == nil {
		err = rerr
	}
	return err
}
