package ota

// The §7 broadcast protocol, built for fleets that lose frames, crash,
// lose flash writes and drop off the air mid-transfer. ProgramFleet
// announces the update to every node, broadcasts every chunk once, then
// runs multi-round NACK-driven block repair: the AP polls each incomplete
// node for its missing-chunk bitmap, unicasts exactly those blocks without
// per-chunk ACKs (the next round's poll reveals what stuck), re-announces
// nodes that crashed and lost their transfer state, backs off
// exponentially (capped) on nodes that make no progress, and stops
// spending on a node once its retry budget is gone. Faults are injected
// from an optional deterministic fault plan (internal/fault), so a
// campaign's report is a pure function of (spec, seed) — byte-identical
// at any worker count.

import (
	"errors"
	"fmt"
	"time"

	"github.com/uwsdr/tinysdr/internal/fault"
	"github.com/uwsdr/tinysdr/internal/fpga"
	"github.com/uwsdr/tinysdr/internal/mcu"
	"github.com/uwsdr/tinysdr/internal/radio"
)

// Broadcast protocol defaults.
const (
	// DefaultHealRounds bounds the repair rounds of a broadcast campaign.
	DefaultHealRounds = 40
	// DefaultMaxBackoff caps the exponential poll backoff, in rounds.
	DefaultMaxBackoff = 8
	// announceAttempts bounds the round-0 announce sweep per node. One
	// lost announce would otherwise cost a node the whole broadcast
	// phase, so the initial sweep retries a few times before leaving the
	// node to the (budgeted) repair rounds.
	announceAttempts = 3
	// nackPayloadLen models the compact missing-chunk bitmap a node
	// returns to a repair poll (a run-length summary fits a handful of
	// bytes for the gap patterns loss bursts produce).
	nackPayloadLen = frameOverhead + 8
)

// HealConfig tunes the broadcast protocol. The zero value is runnable:
// no injected faults and the default retry budget. Repair rounds and
// backoff are capped at DefaultHealRounds and DefaultMaxBackoff.
type HealConfig struct {
	// Plan injects deterministic faults; nil runs the protocol over the
	// plain loss channel.
	Plan *fault.Plan
	// RetryBudget caps the AP transmissions (re-announces, NACK polls,
	// repair chunks) charged to one node; 0 means max(64, two full
	// images' worth of chunks) — enough to recover a node that crashed
	// late and must re-take the whole image.
	RetryBudget int
	// Canceled, when non-nil, is polled between rounds so a controller
	// can abort a campaign (see fleet.Server); a canceled session
	// returns ErrCanceled.
	Canceled func() bool
}

// ErrCanceled is returned by ProgramFleet when HealConfig.Canceled
// reports cancellation mid-campaign.
var ErrCanceled = errors.New("ota: campaign canceled")

// healNode is the per-node repair state machine.
type healNode struct {
	announced bool // completed announce since last crash
	delivered int  // chunks accepted since the campaign began
	spent     int  // retry budget consumed
	backoff   int  // current backoff in rounds
	nextRound int  // earliest round of the next attempt
	finished  bool // transfer complete, awaiting finish phase
}

// ProgramFleet runs the broadcast campaign end to end. design accompanies
// FPGA updates (nil for MCU targets), as in Session.Program. Failures are
// per node and classified (BroadcastNodeResult.Class): one unreachable
// node does not abort the rest of the fleet, matching
// testbed.Campus.ProgramAll. Only protocol-building errors (empty fleet,
// unmarshalable manifest) or cancellation fail the session.
//
// The fault plan's frame index advances with every on-air frame, so every
// fault is a fixed function of (plan seed, node, frame) — the campaign
// report is byte-identical regardless of how shards are scheduled.
func (s *BroadcastSession) ProgramFleet(u *Update, design *fpga.Design, hc HealConfig) (*BroadcastReport, error) {
	if len(s.Targets) == 0 {
		return nil, fmt.Errorf("ota: empty fleet")
	}
	budget := hc.RetryBudget
	if budget <= 0 {
		budget = 2 * len(u.Chunks)
		if budget < 64 {
			budget = 64
		}
	}
	plan := hc.Plan

	rep := &BroadcastReport{PerNode: make([]BroadcastNodeResult, len(s.Targets))}
	// Per-node start times make FleetTime correct even when the fleet's
	// clocks begin skewed: every phase advances all clocks in lockstep,
	// and the fleet time is the largest per-node elapsed time.
	starts := make([]time.Duration, len(s.Targets))
	nodes := make([]healNode, len(s.Targets))
	// One loss table per target link, at the RSSI the target has now.
	links := make([]lossTable, len(s.Targets))
	for i, t := range s.Targets {
		rep.PerNode[i].NodeID = t.Node.ID
		starts[i] = t.Node.Clock.Now()
		links[i].init(t.RSSIdBm)
		if plan != nil {
			t.Node.Flash.SetWriteFaults(plan.Node(t.Node.ID))
			defer t.Node.Flash.SetWriteFaults(nil)
		}
	}
	fail := func(i int, err error, class FailureClass) {
		if rep.PerNode[i].Err == nil {
			rep.PerNode[i].Err = err
			rep.PerNode[i].Class = class
		}
	}

	m := u.Manifest()
	mb, err := m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	chunkTime := s.PHY.TimeOnAir(DataPacketSize) + apProcessing
	reqTime := s.PHY.TimeOnAir(reqPayloadLen) + apProcessing +
		radio.RXToTXTime + nodeProcessing + s.PHY.TimeOnAir(ackPayloadLen)
	pollTime := s.PHY.TimeOnAir(ackPayloadLen) + apProcessing +
		radio.RXToTXTime + nodeProcessing + s.PHY.TimeOnAir(nackPayloadLen)

	// frame is the campaign-global on-air frame index every fault draw is
	// keyed on; it advances once per transmission whether or not anyone
	// heard it.
	var frame int64

	// crashCheck rolls the node's crash fault for the current frame; on a
	// crash the node reboots and loses its transfer state.
	crashCheck := func(i int) bool {
		if plan == nil || !plan.CrashAt(s.Targets[i].Node.ID, frame) {
			return false
		}
		s.Targets[i].Node.Reboot()
		nodes[i].announced = false
		nodes[i].finished = false
		rep.PerNode[i].Crashes++
		return true
	}
	// hears reports whether node i receives the current frame at all:
	// crash, duty-cycle sleep, desync burst, then the channel loss draw.
	// The loss draw is consumed for every listening node (one RNG stream,
	// fixed order), keeping the campaign deterministic.
	hears := func(i int, payloadLen int) bool {
		t := s.Targets[i]
		if crashCheck(i) {
			return false
		}
		if plan != nil && (plan.Asleep(t.Node.ID, frame) || plan.Desynced(t.Node.ID, frame)) {
			return false
		}
		return !s.loss.lost(&s.PHY, &links[i], payloadLen)
	}
	// apUp rolls the AP outage window for the current frame; during an
	// outage nothing is transmitted (no air bytes) but time still passes.
	apUp := func() bool { return plan == nil || !plan.APDown(frame) }

	// announce attempts the program-request/ready exchange with node i at
	// the current frame, returning true when the AP gets the ready back.
	// A node outside an update wakes its radio to listen before the
	// request goes out, so the request airtime is charged in RX whether or
	// not the frame then reaches it.
	announce := func(i int) bool {
		t := s.Targets[i]
		if !t.Node.InUpdate() {
			d, err := t.Node.Backbone.Transition(radio.StateRX)
			if err != nil {
				fail(i, err, FailProtocol)
				return false
			}
			s.advanceAll(d)
			t.Node.MCU.SetState(mcu.StateIdle)
		}
		// The AP spends the request/ready airtime whether or not the node
		// plays along: a failed exchange ends in an AP timeout.
		s.advanceAll(reqTime)
		if !apUp() || !hears(i, reqPayloadLen) {
			return false
		}
		req := &Frame{Type: FrameProgramRequest, Device: t.Node.ID, Payload: mb}
		if _, err := t.Node.HandleProgramRequest(req); err != nil {
			fail(i, err, FailProtocol)
			return false
		}
		// The ready reply shares the frame's fate drawn above except for
		// its own uplink loss.
		if s.loss.lost(&s.PHY, &links[i], ackPayloadLen) {
			// The node is announced but the AP does not know yet; the
			// next poll discovers it. Conservatively count it announced —
			// the node is in the transfer and will collect broadcast data.
			nodes[i].announced = true
			return false
		}
		nodes[i].announced = true
		return true
	}

	// deliver stores one data frame at node i, with no ACK: the broadcast
	// protocol never sends one. Injected flash faults are recoverable (the
	// chunk is simply still missing and the next NACK round re-requests
	// it).
	deliver := func(i int, f *Frame) {
		if err := s.Targets[i].Node.store(f); err != nil {
			if errors.Is(err, fault.ErrFlashWrite) {
				rep.PerNode[i].FlashFaults++
				return
			}
			fail(i, err, FailProtocol)
			return
		}
		nodes[i].delivered++
	}

	// Round 0 — initial announce sweep, not charged against budgets. Each
	// attempt rolls the fault and loss channel, so a node gets a few tries
	// before the broadcast starts without it.
	for i := range s.Targets {
		for a := 0; a < announceAttempts; a++ {
			if rep.PerNode[i].Err != nil || nodes[i].announced {
				break
			}
			frame++
			announce(i)
		}
	}

	// Broadcast phase: every chunk once to BroadcastAddr. Nodes missing
	// their announce still advance in lockstep; they catch up via
	// re-announce and repair rounds.
	for seq, chunk := range u.Chunks {
		frame++
		s.advanceAll(chunkTime)
		if !apUp() {
			// The AP is down: the frame slot passes unused; every node
			// keeps the gap and the repair rounds resend it.
			continue
		}
		rep.BroadcastPackets++
		rep.AirBytes += len(chunk) + frameOverhead
		data := &Frame{Type: FrameData, Device: BroadcastAddr, Seq: uint16(seq), Payload: chunk}
		for i := range s.Targets {
			if rep.PerNode[i].Err != nil || !nodes[i].announced {
				// Unannounced nodes are not in update mode; their loss
				// draw is still consumed so the stream stays aligned.
				_ = s.loss.lost(&s.PHY, &links[i], len(chunk)+frameOverhead)
				continue
			}
			if hears(i, len(chunk)+frameOverhead) {
				deliver(i, data)
			}
		}
	}

	// Repair rounds: NACK-driven, budgeted, with capped exponential
	// backoff for nodes that make no progress.
	for round := 1; round <= DefaultHealRounds; round++ {
		if hc.Canceled != nil && hc.Canceled() {
			return nil, ErrCanceled
		}
		active := false
		for i := range s.Targets {
			t := s.Targets[i]
			st := &nodes[i]
			if rep.PerNode[i].Err != nil || st.finished {
				continue
			}
			if st.announced && t.Node.InUpdate() && t.Node.Complete() {
				st.finished = true
				continue
			}
			active = true
			if round < st.nextRound {
				continue
			}
			if st.spent >= budget {
				class, why := FailExhausted, "retry budget exhausted"
				if st.delivered == 0 && !st.announced {
					class, why = FailUnreachable, "never reachable"
				}
				fail(i, fmt.Errorf("ota: node %d %s after %d transmissions, %d rounds",
					t.Node.ID, why, st.spent, round-1), class)
				continue
			}
			progress := false

			// Crashed or never-announced nodes need the announce first.
			if !st.announced || !t.Node.InUpdate() {
				st.announced = false
				frame++
				st.spent++
				rep.RepairPackets++
				rep.PerNode[i].Repairs++
				if announce(i) {
					progress = true
				}
				if rep.PerNode[i].Err != nil || !st.announced {
					s.backoffStep(st, round, progress)
					continue
				}
			}

			// NACK poll: one exchange that yields the node's missing set.
			frame++
			st.spent++
			rep.RepairPackets++
			rep.PerNode[i].Repairs++
			s.advanceAll(pollTime)
			polled := apUp() && hears(i, ackPayloadLen) && !s.loss.lost(&s.PHY, &links[i], nackPayloadLen)
			if rep.PerNode[i].Err != nil {
				continue
			}
			if !polled || !t.Node.InUpdate() {
				s.backoffStep(st, round, progress)
				continue
			}

			// Unicast the missing chunks, no per-chunk ACKs: the next
			// round's poll reveals what stuck.
			before := len(t.Node.Missing())
			for _, seq := range t.Node.Missing() {
				if st.spent >= budget {
					break
				}
				frame++
				st.spent++
				rep.RepairPackets++
				rep.PerNode[i].Repairs++
				s.advanceAll(chunkTime)
				if !apUp() {
					continue
				}
				rep.AirBytes += len(u.Chunks[seq]) + frameOverhead
				if !hears(i, len(u.Chunks[seq])+frameOverhead) {
					continue
				}
				if rep.PerNode[i].Err != nil || !t.Node.InUpdate() {
					break // crashed mid-repair; re-announce next round
				}
				f := &Frame{Type: FrameData, Device: t.Node.ID, Seq: uint16(seq), Payload: u.Chunks[seq]}
				deliver(i, f)
			}
			if t.Node.InUpdate() && len(t.Node.Missing()) < before {
				progress = true
			}
			s.backoffStep(st, round, progress)
		}
		if !active {
			break
		}
	}

	// Classify what is still incomplete after the rounds ran out.
	for i, t := range s.Targets {
		st := &nodes[i]
		if rep.PerNode[i].Err != nil || st.finished ||
			(st.announced && t.Node.InUpdate() && t.Node.Complete()) {
			continue
		}
		switch {
		case st.delivered == 0 && !st.announced:
			fail(i, fmt.Errorf("ota: node %d never reachable", t.Node.ID), FailUnreachable)
		case !t.Node.InUpdate():
			fail(i, fmt.Errorf("ota: node %d crashed and was not recovered", t.Node.ID), FailCrashed)
		default:
			fail(i, fmt.Errorf("ota: node %d not repaired after %d rounds", t.Node.ID, DefaultHealRounds), FailExhausted)
		}
	}

	// Finish marker, then each complete node decompresses and reprograms.
	// The write-fault hook is scoped to the transfer: staging writes are
	// the faulted path, so flashfail stays a recoverable fault (the repair
	// rounds re-deliver the chunk), while bit-rot planted in the staged
	// stream surfaces here as a terminal decompress failure (FailFlash).
	if plan != nil {
		for _, t := range s.Targets {
			t.Node.Flash.SetWriteFaults(nil)
		}
	}
	frame++
	s.advanceAll(s.PHY.TimeOnAir(ackPayloadLen) + apProcessing)
	for i, t := range s.Targets {
		if rep.PerNode[i].Err == nil {
			stats, err := t.Node.Finish(design)
			if err != nil {
				fail(i, err, FailFlash)
			} else {
				rep.PerNode[i].Stats = stats
			}
		}
		rep.PerNode[i].Duration = t.Node.Clock.Now() - starts[i]
		if d := rep.PerNode[i].Duration; d > rep.FleetTime {
			rep.FleetTime = d
		}
	}
	return rep, nil
}

// backoffStep advances a node's backoff schedule: progress resets it to
// the next round; a dry round doubles it up to DefaultMaxBackoff.
func (s *BroadcastSession) backoffStep(st *healNode, round int, progress bool) {
	if progress {
		st.backoff = 1
	} else {
		st.backoff *= 2
		if st.backoff < 1 {
			st.backoff = 1
		}
		if st.backoff > DefaultMaxBackoff {
			st.backoff = DefaultMaxBackoff
		}
	}
	st.nextRound = round + st.backoff
}
