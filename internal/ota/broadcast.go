package ota

import (
	"time"

	"github.com/uwsdr/tinysdr/internal/lora"
)

// Broadcast programming (§7, "Better programming interface and protocols"):
// instead of programming nodes sequentially, the AP broadcasts every data
// chunk once to the whole fleet, then repairs the chunks each node missed
// in NACK-driven rounds (ProgramFleet, healing.go). Fleet programming time
// becomes one transfer plus loss repair instead of N sequential transfers —
// the extension the paper proposes to reduce network programming time.

// BroadcastAddr is the all-nodes device address for broadcast data frames.
const BroadcastAddr = 0xFFFF

// BroadcastTarget is one node in a broadcast session with its link quality.
type BroadcastTarget struct {
	Node    *Node
	RSSIdBm float64
}

// BroadcastSession drives a fleet update in broadcast mode. All node clocks
// advance in lockstep: the fleet shares the broadcast phase, waits through
// each node's repair phase, and reprograms concurrently at the end.
type BroadcastSession struct {
	Targets []BroadcastTarget
	// PHY is the backbone configuration. It is fixed for the session's
	// life: ProgramFleet caches each target's packet error rates on that
	// premise, and nothing assigns PHY after NewBroadcastSession.
	PHY lora.Params

	loss lossModel
}

// NewBroadcastSession returns a broadcast session over the given fleet.
func NewBroadcastSession(targets []BroadcastTarget, seed int64) *BroadcastSession {
	return &BroadcastSession{
		Targets: targets,
		PHY:     BackboneParams(),
		loss:    newLossModel(seed),
	}
}

// FailureClass is the per-node failure taxonomy: why a node could not be
// programmed. It separates "never reachable" (the announce never landed
// and nothing was delivered) from "failed after repairs" (the node took
// data but the repair budget or rounds ran out) — two outcomes a testbed
// operator triages very differently — plus the chaos-harness classes.
type FailureClass string

// Failure classes.
const (
	// FailNone marks a successfully programmed node.
	FailNone FailureClass = ""
	// FailUnreachable: the node never entered the transfer — no announce
	// completed and no data was delivered.
	FailUnreachable FailureClass = "unreachable"
	// FailExhausted: the node took data but exhausted its repair rounds
	// or retry budget before completing — failed after repairs.
	FailExhausted FailureClass = "exhausted-retries"
	// FailCrashed: the node ended the campaign in a crashed/rebooted
	// state with its update state lost.
	FailCrashed FailureClass = "crashed"
	// FailFlash: flash write failures or bit-rot corrupted the transfer
	// (including decompress failures at finish).
	FailFlash FailureClass = "flash-fault"
	// FailProtocol: a non-fault protocol error (bad frame, bad state).
	FailProtocol FailureClass = "protocol"
)

// BroadcastNodeResult is one node's outcome in a fleet broadcast. Failures
// are per node, matching testbed.ProgramResult: one unreachable node does
// not abort the rest of the fleet.
type BroadcastNodeResult struct {
	NodeID uint16
	// Repairs counts the AP transmissions charged to this node after the
	// broadcast phase: re-announces, NACK polls and repair chunks.
	Repairs int
	// Duration is this node's own elapsed time over the session, measured
	// on its own clock. The fleet advances in lockstep, so a failed node
	// still observes the whole session; its Duration is the session's
	// elapsed time at that node, not the time to its failure.
	Duration time.Duration
	// Stats holds the finish-phase stats for successfully programmed nodes.
	Stats DecompressStats
	// Err is the node's failure, nil on success.
	Err error
	// Class is the failure taxonomy for Err (FailNone on success).
	Class FailureClass
	// Crashes and FlashFaults count the injected faults this node
	// absorbed (zero without a fault plan).
	Crashes     int
	FlashFaults int
}

// BroadcastReport summarizes a fleet broadcast.
type BroadcastReport struct {
	// FleetTime is the wall time to program the whole fleet: broadcast
	// phase plus all repair phases plus the (concurrent) reprogramming.
	// It is the maximum per-node elapsed time, so it is correct even when
	// the fleet's clocks start skewed.
	FleetTime time.Duration
	// BroadcastPackets is the number of chunks sent in the shared phase.
	BroadcastPackets int
	// RepairPackets counts the transmissions charged to nodes after the
	// broadcast phase (the sum of every node's Repairs).
	RepairPackets int
	// AirBytes is the AP-transmitted data bytes: broadcast and repair
	// chunks, each counted with frame overhead. Announces and NACK polls
	// are control frames and are not counted, so the total is comparable
	// to the sum of unicast Report.AirBytes.
	AirBytes int
	// PerNode holds each node's outcome, in Targets order.
	PerNode []BroadcastNodeResult
}

// Failed returns the number of nodes that could not be programmed.
func (r *BroadcastReport) Failed() int {
	n := 0
	for _, p := range r.PerNode {
		if p.Err != nil {
			n++
		}
	}
	return n
}

// FailedByClass breaks the failure count down by taxonomy class, so
// "never reachable" no longer collapses into the same number as "failed
// after repairs".
func (r *BroadcastReport) FailedByClass() map[FailureClass]int {
	out := map[FailureClass]int{}
	for _, p := range r.PerNode {
		if p.Err != nil {
			out[p.Class]++
		}
	}
	return out
}

// Completed returns the number of successfully programmed nodes.
func (r *BroadcastReport) Completed() int { return len(r.PerNode) - r.Failed() }

// advanceAll moves every node's clock forward by d, keeping the fleet in
// lockstep.
func (s *BroadcastSession) advanceAll(d time.Duration) {
	for _, t := range s.Targets {
		t.Node.Clock.Advance(d)
	}
}
