// Package fleet is the campaign control plane for programming
// arbitrary-size tinySDR fleets over the air — the step from the paper's
// 20-node campus (§5.3) toward a testbed service that schedules firmware
// rollouts across many deployments at once.
//
// A campaign shards the fleet into fixed-size cells, one access point per
// cell (the paper's campus is one such cell), and programs the cells
// concurrently across a deterministic worker pool. Each cell runs either
// the §3.4 sequential-unicast sessions or the §7 broadcast+repair protocol,
// with per-node retry and failure tracking. Every cell derives its geometry
// and protocol randomness from (campaign seed, shard index) alone, so a
// campaign's per-node results are bit-identical for any worker count.
package fleet

import (
	"context"
	"fmt"
	"time"

	"github.com/uwsdr/tinysdr/internal/fault"
	"github.com/uwsdr/tinysdr/internal/flash"
	"github.com/uwsdr/tinysdr/internal/fpga"
	"github.com/uwsdr/tinysdr/internal/ota"
	"github.com/uwsdr/tinysdr/internal/par"
	"github.com/uwsdr/tinysdr/internal/testbed"
)

// Mode selects a campaign's programming protocol.
type Mode string

// Campaign protocols.
const (
	// ModeUnicast programs each cell's nodes one at a time with the §3.4
	// acknowledged sessions; a cell's time is the sum of its sessions.
	ModeUnicast Mode = "unicast"
	// ModeBroadcast programs each cell with the §7 broadcast MAC: every
	// chunk once to BroadcastAddr, then NACK-driven per-node repair.
	ModeBroadcast Mode = "broadcast"
)

// Image kinds a campaign can distribute (the §5.3 firmware set).
const (
	ImageLoRa = "lora" // LoRa modem FPGA bitstream
	ImageBLE  = "ble"  // BLE beacon FPGA bitstream
	ImageMCU  = "mcu"  // MCU firmware
)

// DefaultImageKB is the §5.3 MCU firmware size.
const DefaultImageKB = 78

// MaxImageKB bounds a campaign's MCU image: nothing larger fits a node's
// firmware flash region.
const MaxImageKB = ota.RegionSize / 1024

// Spec describes one campaign. The zero value plus Nodes is runnable:
// defaults are a broadcast campaign shipping the 78 kB MCU image in
// campus-sized cells.
type Spec struct {
	// Name labels the campaign in listings.
	Name string `json:"name,omitempty"`
	// Seed drives all campaign randomness (geometry, channels, losses).
	Seed int64 `json:"seed"`
	// Nodes is the fleet size.
	Nodes int `json:"nodes"`
	// ShardSize is the nodes per AP cell; 0 means the paper's 20-node
	// campus. The partition is fixed by the spec, never by the pool size.
	ShardSize int `json:"shard_size,omitempty"`
	// Mode is the programming protocol; empty means ModeBroadcast.
	Mode Mode `json:"mode,omitempty"`
	// Image is the firmware kind; empty means ImageMCU.
	Image string `json:"image,omitempty"`
	// ImageKB sizes the MCU image; 0 means DefaultImageKB. FPGA images
	// are always full bitstreams.
	ImageKB int `json:"image_kb,omitempty"`
	// Workers bounds the host worker pool; 0 means all CPUs. Results are
	// bit-identical for every value.
	Workers int `json:"workers,omitempty"`

	// Faults injects deterministic faults from the internal/fault grammar
	// (e.g. "crash=0.02,flashfail=0.01,desync=0.05:4") into broadcast
	// cells; empty injects none.
	Faults string `json:"faults,omitempty"`
	// Quorum is the node-completion fraction at which the campaign counts
	// as met; 0 means all-or-nothing (every node must program). With a
	// quorum below 1 a chaos campaign degrades gracefully instead of
	// aborting.
	Quorum float64 `json:"quorum,omitempty"`
	// RetryBudget caps per-node repair transmissions in broadcast cells;
	// 0 means the protocol default.
	RetryBudget int `json:"retry_budget,omitempty"`
}

// normalize fills defaults and validates, returning the runnable spec.
func (s Spec) normalize() (Spec, error) {
	if s.Nodes < 1 {
		return s, fmt.Errorf("fleet: campaign needs at least one node (got %d)", s.Nodes)
	}
	if s.Nodes > 65000 {
		return s, fmt.Errorf("fleet: %d nodes exceeds the 65000-node address space", s.Nodes)
	}
	if s.ShardSize == 0 {
		s.ShardSize = testbed.DefaultNodeCount
	}
	if s.ShardSize < 1 {
		return s, fmt.Errorf("fleet: shard size %d", s.ShardSize)
	}
	if s.Mode == "" {
		s.Mode = ModeBroadcast
	}
	if s.Mode != ModeUnicast && s.Mode != ModeBroadcast {
		return s, fmt.Errorf("fleet: unknown mode %q", s.Mode)
	}
	if s.Image == "" {
		s.Image = ImageMCU
	}
	if s.Image != ImageLoRa && s.Image != ImageBLE && s.Image != ImageMCU {
		return s, fmt.Errorf("fleet: unknown image %q", s.Image)
	}
	if s.ImageKB == 0 {
		s.ImageKB = DefaultImageKB
	}
	// The flash staging region bounds any shippable image; rejecting here
	// keeps an API caller from making the scheduler synthesize huge (or,
	// via overflow, negative-length) images.
	if s.ImageKB < 1 || s.ImageKB > MaxImageKB {
		return s, fmt.Errorf("fleet: image size %d kB outside [1, %d]", s.ImageKB, MaxImageKB)
	}
	if _, err := fault.Parse(s.Faults); err != nil {
		return s, err
	}
	if s.Quorum < 0 || s.Quorum > 1 {
		return s, fmt.Errorf("fleet: quorum %g outside [0, 1]", s.Quorum)
	}
	if s.RetryBudget < 0 {
		return s, fmt.Errorf("fleet: retry budget %d", s.RetryBudget)
	}
	if (s.Faults != "" || s.RetryBudget != 0) && s.Mode != ModeBroadcast {
		return s, fmt.Errorf("fleet: fault injection and retry budgets need mode %q", ModeBroadcast)
	}
	return s, nil
}

// buildImage synthesizes the campaign's firmware.
func buildImage(s Spec) (img []byte, target ota.Target, design *fpga.Design) {
	switch s.Image {
	case ImageLoRa:
		design = fpga.LoRaTRXDesign(8)
		return fpga.SynthBitstream(design), ota.TargetFPGA, design
	case ImageBLE:
		design = fpga.BLEBeaconDesign()
		return fpga.SynthBitstream(design), ota.TargetFPGA, design
	default:
		return fpga.SynthMCUFirmware(s.ImageKB*1024, s.Seed), ota.TargetMCU, nil
	}
}

// NodeResult is one node's campaign outcome.
type NodeResult struct {
	// ID is the node's global 1-based index across the fleet.
	ID int `json:"id"`
	// Shard is the node's cell.
	Shard int `json:"shard"`
	// DeviceID is the node's OTA address within its cell.
	DeviceID uint16 `json:"device_id"`
	// DistanceM is the node's range from its cell's AP.
	DistanceM float64 `json:"distance_m"`
	// RSSIdBm is the downlink received power.
	RSSIdBm float64 `json:"rssi_dbm"`
	// Duration is the node's own programming time (nanoseconds in JSON).
	Duration time.Duration `json:"duration_ns"`
	// EnergyJ is the node-side energy spent on the update.
	EnergyJ float64 `json:"energy_j"`
	// Retries counts unicast retransmissions or broadcast repair
	// transmissions spent on this node.
	Retries int `json:"retries"`
	// Err is the node's failure, empty on success.
	Err string `json:"error,omitempty"`
	// Class is the failure taxonomy for Err (ota.FailureClass): crashed,
	// flash-fault, unreachable, exhausted-retries or protocol.
	Class string `json:"failure_class,omitempty"`
	// Crashes and FlashFaults count the injected faults this node
	// absorbed (chaos campaigns only).
	Crashes     int `json:"crashes,omitempty"`
	FlashFaults int `json:"flash_faults,omitempty"`
}

// Result is a completed campaign.
type Result struct {
	// Spec is the normalized campaign spec that ran.
	Spec Spec `json:"spec"`
	// Shards is the number of AP cells.
	Shards int `json:"shards"`
	// FleetTime is the campaign wall time: cells program concurrently, so
	// it is the slowest cell's time (nanoseconds in JSON).
	FleetTime time.Duration `json:"fleet_time_ns"`
	// AirBytes is the total AP-transmitted data bytes across all cells.
	AirBytes int `json:"air_bytes"`
	// DataPackets counts data transmissions (broadcast chunks, repairs,
	// and unicast data frames) across all cells.
	DataPackets int `json:"data_packets"`
	// Failed is the number of nodes that could not be programmed.
	Failed int `json:"failed"`
	// Completed is the number of fully programmed nodes; CompletionFrac
	// is Completed over the fleet size.
	Completed      int     `json:"completed"`
	CompletionFrac float64 `json:"completion_frac"`
	// QuorumMet reports whether CompletionFrac reached the spec's quorum
	// (all-or-nothing when Spec.Quorum is 0) — the campaign-level
	// success criterion under faults.
	QuorumMet bool `json:"quorum_met"`
	// Failures counts failed nodes by taxonomy class (empty when every
	// node programmed).
	Failures map[string]int `json:"failures,omitempty"`
	// Nodes holds every node's outcome in global ID order.
	Nodes []NodeResult `json:"nodes"`
}

// ShardResult is one AP cell's contribution to a campaign — the unit of
// resumable execution. Each shard is a pure function of (spec, shard
// index), so a persisted ShardResult substitutes exactly for re-running
// its cell; the fleet server journals one as each shard completes and a
// recovered campaign re-executes only the missing ones.
type ShardResult struct {
	// Shard is the cell's index in the campaign's partition.
	Shard int `json:"shard"`
	// Elapsed is the cell's own programming time (nanoseconds in JSON).
	Elapsed time.Duration `json:"elapsed_ns"`
	// AirBytes and DataPackets are the cell's AP transmission totals.
	AirBytes    int `json:"air_bytes"`
	DataPackets int `json:"data_packets"`
	// Nodes holds the cell's per-node outcomes in global ID order.
	Nodes []NodeResult `json:"nodes"`
}

// Run executes a campaign synchronously and returns the per-node results.
// The shard partition and every seed derive from the spec alone, and shards
// fan out across the par pool with positional results, so the outcome is
// bit-identical for any Workers value.
func Run(spec Spec) (*Result, error) {
	return RunContext(context.Background(), spec)
}

// RunContext is Run with cancellation: a canceled context aborts the
// campaign between shards and between broadcast repair rounds, so a hung
// or heavily-faulted campaign cannot run away from its controller.
func RunContext(ctx context.Context, spec Spec) (*Result, error) {
	return RunResumable(ctx, spec, nil, nil)
}

// numShards is the campaign's cell count for a normalized spec.
func numShards(spec Spec) int {
	return (spec.Nodes + spec.ShardSize - 1) / spec.ShardSize
}

// RunResumable is RunContext with a durability seam: shards already in
// done are not re-executed (their persisted results substitute for the
// run), and onShard — when non-nil — observes each freshly-executed
// shard's result as it completes, before the campaign finishes. onShard is
// called from worker goroutines, possibly concurrently; the caller
// serializes. An onShard error aborts the campaign (the control plane
// treats a failed journal write as fatal rather than running ahead of its
// log).
//
// The merged Result is byte-identical to an uninterrupted run: shards are
// merged in partition order whether they came from done or from this
// execution, which is exactly the positional order of the non-resumed
// fan-out.
func RunResumable(ctx context.Context, spec Spec, done map[int]ShardResult, onShard func(ShardResult) error) (*Result, error) {
	spec, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	shards := numShards(spec)
	// Walk the partition in index order (not the map) so validation,
	// copying, and the missing-shard scan are all deterministic; a key
	// outside [0, shards) shows up as a count mismatch at the end.
	var missing []int
	all := make(map[int]ShardResult, shards)
	resumed := 0
	for s := 0; s < shards; s++ {
		sr, ok := done[s]
		if !ok {
			missing = append(missing, s)
			continue
		}
		if sr.Shard != s {
			return nil, fmt.Errorf("fleet: resumed shard %d carries index %d", s, sr.Shard)
		}
		all[s] = sr
		resumed++
	}
	if resumed != len(done) {
		return nil, fmt.Errorf("fleet: resumed shards outside the campaign's %d-shard partition", shards)
	}
	if len(missing) > 0 {
		img, target, design := buildImage(spec)
		u, err := ota.BuildUpdate(target, img)
		if err != nil {
			return nil, err
		}
		// With a single cell the pool has nothing to fan over, so the cell's
		// unicast sessions use it instead; per-node results are independent
		// of pool sizing either way (see internal/par).
		innerWorkers := 1
		if shards == 1 {
			innerWorkers = par.ResolveWorkers(spec.Workers)
		}
		outs, err := par.Do(par.ResolveWorkers(spec.Workers), len(missing), func(i int) (ShardResult, error) {
			if err := ctx.Err(); err != nil {
				return ShardResult{}, fmt.Errorf("fleet: campaign canceled: %w", err)
			}
			s := missing[i]
			size := spec.ShardSize
			if s == shards-1 {
				size = spec.Nodes - s*spec.ShardSize
			}
			sr, err := runShard(ctx, spec, u, design, s, size, innerWorkers)
			if err != nil {
				return sr, err
			}
			if onShard != nil {
				if err := onShard(sr); err != nil {
					return sr, err
				}
			}
			return sr, nil
		})
		if err != nil {
			return nil, err
		}
		for i, out := range outs {
			all[missing[i]] = out
		}
	}
	return mergeShards(spec, all), nil
}

// mergeShards folds a complete shard set into the campaign Result. Merging
// walks the partition in shard order, so the outcome does not depend on
// which shards were resumed from a journal and which just ran.
func mergeShards(spec Spec, all map[int]ShardResult) *Result {
	shards := numShards(spec)
	res := &Result{Spec: spec, Shards: shards}
	for s := 0; s < shards; s++ {
		out := all[s]
		if out.Elapsed > res.FleetTime {
			res.FleetTime = out.Elapsed
		}
		res.AirBytes += out.AirBytes
		res.DataPackets += out.DataPackets
		res.Nodes = append(res.Nodes, out.Nodes...)
	}
	for _, n := range res.Nodes {
		if n.Err != "" {
			res.Failed++
			if res.Failures == nil {
				res.Failures = map[string]int{}
			}
			res.Failures[n.Class]++
		}
	}
	res.Completed = len(res.Nodes) - res.Failed
	res.CompletionFrac = float64(res.Completed) / float64(len(res.Nodes))
	quorum := spec.Quorum
	if quorum == 0 {
		quorum = 1
	}
	res.QuorumMet = res.CompletionFrac >= quorum
	return res
}

// shardSeeds derives a cell's geometry and protocol seeds. Two SplitMix64
// streams per shard keep the channel realization and the loss draws
// decorrelated from each other and from every other cell.
func shardSeeds(seed int64, shard int) (campusSeed, protoSeed int64) {
	return par.SplitSeed(seed, int64(2*shard)), par.SplitSeed(seed, int64(2*shard+1))
}

// faultSeed derives a cell's fault-plan stream, decorrelated from the
// geometry and protocol streams of shardSeeds (which use streams 2s and
// 2s+1; the 1<<20 offset clears them for any shard count).
func faultSeed(seed int64, shard int) int64 {
	return par.SplitSeed(seed, int64(1<<20)+int64(shard))
}

// runShard programs one AP cell. workers sizes the host pool for the cell's
// unicast sessions (simulated time is unaffected: the AP's schedule is
// sequential on each node's own clock either way).
func runShard(ctx context.Context, spec Spec, u *ota.Update, design *fpga.Design, shard, size, workers int) (ShardResult, error) {
	campusSeed, protoSeed := shardSeeds(spec.Seed, shard)
	campus := testbed.NewCampusN(campusSeed, size)
	// Once the cell's results are out, erasing its devices hands their
	// flash storage back for the next cell, and the next campaign, to use.
	defer func() {
		for _, n := range campus.Nodes {
			_ = n.OTA.Flash.Erase(0, flash.Size) // aligned and in bounds
		}
	}()
	base := shard * spec.ShardSize
	out := ShardResult{Shard: shard}

	switch spec.Mode {
	case ModeUnicast:
		// The cell's AP programs its nodes one after another, so the cell
		// time is the sum of the per-node sessions (failures included —
		// the AP spent that air time before giving up).
		results := campus.ProgramAllWorkers(u, design, workers)
		for i, r := range results {
			node := campus.Nodes[i]
			nr := NodeResult{
				ID: base + i + 1, Shard: shard, DeviceID: r.NodeID,
				DistanceM: r.Distance, RSSIdBm: r.RSSIdBm,
				Duration: node.Clock.Now(),
				EnergyJ:  node.PMU.Ledger().Energy(),
			}
			if r.Err != nil {
				nr.Err = r.Err.Error()
				// A unicast session only fails by running out of link
				// retries: the node never completed an exchange.
				nr.Class = string(ota.FailUnreachable)
			} else {
				nr.Retries = r.Report.Retransmissions
				out.AirBytes += r.Report.AirBytes
				out.DataPackets += r.Report.DataPackets + r.Report.Retransmissions
			}
			out.Elapsed += nr.Duration
			out.Nodes = append(out.Nodes, nr)
		}

	case ModeBroadcast:
		targets := make([]ota.BroadcastTarget, len(campus.Nodes))
		for i, n := range campus.Nodes {
			n.PMU.Ledger().Reset()
			targets[i] = ota.BroadcastTarget{Node: n.OTA, RSSIdBm: campus.RSSI(n)}
		}
		var plan *fault.Plan
		if spec.Faults != "" {
			fspec, err := fault.Parse(spec.Faults)
			if err != nil {
				return out, err
			}
			plan = fault.NewPlan(fspec, faultSeed(spec.Seed, shard))
		}
		rep, err := ota.NewBroadcastSession(targets, protoSeed).ProgramFleet(u, design, ota.HealConfig{
			Plan:        plan,
			RetryBudget: spec.RetryBudget,
			Canceled:    func() bool { return ctx.Err() != nil },
		})
		if err != nil {
			return out, fmt.Errorf("fleet: shard %d: %w", shard, err)
		}
		out.Elapsed = rep.FleetTime
		out.AirBytes = rep.AirBytes
		out.DataPackets = rep.BroadcastPackets + rep.RepairPackets
		for i, p := range rep.PerNode {
			node := campus.Nodes[i]
			nr := NodeResult{
				ID: base + i + 1, Shard: shard, DeviceID: p.NodeID,
				DistanceM: node.Distance(), RSSIdBm: targets[i].RSSIdBm,
				Duration: p.Duration, EnergyJ: node.PMU.Ledger().Energy(),
				Retries: p.Repairs,
			}
			if p.Err != nil {
				nr.Err = p.Err.Error()
				nr.Class = string(p.Class)
			}
			nr.Crashes = p.Crashes
			nr.FlashFaults = p.FlashFaults
			out.Nodes = append(out.Nodes, nr)
		}
	}
	return out, nil
}
