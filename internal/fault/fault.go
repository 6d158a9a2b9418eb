// Package fault is the deterministic fault-plan engine behind the chaos
// evaluation: it decides, ahead of time, which faults strike which node at
// which protocol event. Every decision is a pure function of
// (plan seed, node, event index, fault kind) through the same SplitMix64
// finalizer the trial-parallel runner uses (internal/par), so a chaos
// campaign's faults — and therefore its reports — are byte-identical at any
// worker count, exactly the determinism contract of the Monte-Carlo sweeps.
//
// The injectable kinds model the failure modes a real OTA testbed
// deployment survives or dies on:
//
//   - node crash/reboot with loss of in-progress update state
//   - flash program failures and bit-rot in stored data
//   - RX desync bursts (the node misses a run of consecutive frames)
//   - duty-cycle dropouts (the node sleeps through a fraction of frames)
//   - AP outage windows (nobody hears anything for a run of frames)
//
// A Spec is parsed from a compact textual grammar parallel to the channel
// scenario grammar (internal/sim/scenario), e.g.
//
//	crash=0.02,flashfail=0.01,bitrot=0.002,desync=0.05:4,duty=0.1,apoutage=0.01:8
//
// and bound to a seed with NewPlan. Plans hold no mutable state: queries
// may be issued in any order, from any schedule, and always agree.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrFlashWrite marks injected flash program failures, so protocol code
// can classify them (errors.Is) apart from genuine protocol errors.
var ErrFlashWrite = errors.New("flash program fault")

// Kind enumerates the injectable fault kinds. The numeric values are part
// of the determinism contract (they salt the per-event hash), so new kinds
// must be appended, never renumbered.
type Kind uint8

// Fault kinds.
const (
	KindCrash Kind = iota + 1
	KindFlashWrite
	KindBitRot
	KindDesync
	KindDutyCycle
	KindAPOutage
)

// Burst lengths for the burst-shaped kinds.
const (
	// DefaultDesyncFrames is the frames lost per RX desync burst when the
	// grammar omits a length.
	DefaultDesyncFrames = 4
	// DefaultOutageFrames is the frames per AP outage window when the
	// grammar omits a length.
	DefaultOutageFrames = 8
	// MaxBurstFrames caps both burst lengths. Desynced and APDown scan
	// one window of that many frames per query, so the cap bounds what a
	// spec from outside (a campaign's faults field) can cost.
	MaxBurstFrames = 1024
)

// Spec describes fault intensities. The zero value injects nothing.
type Spec struct {
	// CrashProb is the per-frame probability a node crashes and reboots,
	// losing all in-progress update state (crash=P).
	CrashProb float64 `json:"crash,omitempty"`
	// FlashFailProb is the per-write probability a flash program fails,
	// leaving the device untouched (flashfail=P).
	FlashFailProb float64 `json:"flashfail,omitempty"`
	// BitRotProb is the per-write probability one stored bit flips
	// silently (bitrot=P).
	BitRotProb float64 `json:"bitrot,omitempty"`
	// DesyncProb is the per-frame probability a node starts an RX desync
	// burst of DesyncFrames frames (desync=P[:LEN]).
	DesyncProb float64 `json:"desync,omitempty"`
	// DesyncFrames is the burst length; 0 means DefaultDesyncFrames.
	DesyncFrames int `json:"desync_frames,omitempty"`
	// DutyCycleOff is the fraction of frames a node sleeps through on its
	// duty cycle (duty=P).
	DutyCycleOff float64 `json:"duty,omitempty"`
	// APOutageProb is the per-frame probability the AP starts an outage
	// window of APOutageFrames frames (apoutage=P[:LEN]).
	APOutageProb float64 `json:"apoutage,omitempty"`
	// APOutageFrames is the outage length; 0 means DefaultOutageFrames.
	APOutageFrames int `json:"apoutage_frames,omitempty"`
}

// Enabled reports whether the spec injects any fault at all.
func (s Spec) Enabled() bool {
	return s.CrashProb > 0 || s.FlashFailProb > 0 || s.BitRotProb > 0 ||
		s.DesyncProb > 0 || s.DutyCycleOff > 0 || s.APOutageProb > 0
}

// Validate rejects probabilities outside [0, 1] (NaN included) and burst
// lengths outside [0, MaxBurstFrames].
func (s Spec) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"crash", s.CrashProb}, {"flashfail", s.FlashFailProb},
		{"bitrot", s.BitRotProb}, {"desync", s.DesyncProb},
		{"duty", s.DutyCycleOff}, {"apoutage", s.APOutageProb},
	}
	for _, p := range probs {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("fault: %s probability %g outside [0, 1]", p.name, p.v)
		}
	}
	for _, n := range []int{s.DesyncFrames, s.APOutageFrames} {
		if n < 0 || n > MaxBurstFrames {
			return fmt.Errorf("fault: burst length %d outside [0, %d]", n, MaxBurstFrames)
		}
	}
	return nil
}

// Scale multiplies every probability by x (clamped to [0, 1]), keeping the
// burst lengths — the intensity axis of the chaos sweep.
func (s Spec) Scale(x float64) Spec {
	clamp := func(p float64) float64 {
		p *= x
		if p < 0 {
			return 0
		}
		if p > 1 {
			return 1
		}
		return p
	}
	s.CrashProb = clamp(s.CrashProb)
	s.FlashFailProb = clamp(s.FlashFailProb)
	s.BitRotProb = clamp(s.BitRotProb)
	s.DesyncProb = clamp(s.DesyncProb)
	s.DutyCycleOff = clamp(s.DutyCycleOff)
	s.APOutageProb = clamp(s.APOutageProb)
	return s
}

// Parse parses the compact comma-separated fault grammar:
//
//	crash=P  flashfail=P  bitrot=P  duty=P
//	desync=P[:FRAMES]  apoutage=P[:FRAMES]
//
// e.g. "crash=0.02,flashfail=0.01,desync=0.05:4". Like the scenario
// grammar, unknown terms and trailing arguments are rejected, never
// silently dropped. An empty string and "none" (what String renders for
// the zero spec) parse as the zero spec.
func Parse(s string) (Spec, error) {
	spec := Spec{}
	if s = strings.TrimSpace(s); s == "" || s == "none" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok || val == "" {
			return spec, fmt.Errorf("fault: term %q needs a value", part)
		}
		args := strings.Split(val, ":")
		prob, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			return spec, fmt.Errorf("fault: bad term %q: %w", part, err)
		}
		frames := 0
		switch key {
		case "desync", "apoutage":
			if len(args) > 2 {
				return spec, fmt.Errorf("fault: term %q has %d arguments, at most 2 allowed", part, len(args))
			}
			if len(args) == 2 {
				if frames, err = strconv.Atoi(args[1]); err != nil {
					return spec, fmt.Errorf("fault: bad term %q: %w", part, err)
				}
				if frames < 1 {
					return spec, fmt.Errorf("fault: term %q: burst length %d", part, frames)
				}
			}
		default:
			if len(args) > 1 {
				return spec, fmt.Errorf("fault: term %q takes a single probability", part)
			}
		}
		switch key {
		case "crash":
			spec.CrashProb = prob
		case "flashfail":
			spec.FlashFailProb = prob
		case "bitrot":
			spec.BitRotProb = prob
		case "desync":
			spec.DesyncProb, spec.DesyncFrames = prob, frames
		case "duty":
			spec.DutyCycleOff = prob
		case "apoutage":
			spec.APOutageProb, spec.APOutageFrames = prob, frames
		default:
			return spec, fmt.Errorf("fault: unknown term %q", key)
		}
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}

// String renders the spec back into the Parse grammar ("none" when empty).
func (s Spec) String() string {
	var parts []string
	add := func(term string, p float64) {
		if p > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", term, p))
		}
	}
	add("crash", s.CrashProb)
	add("flashfail", s.FlashFailProb)
	add("bitrot", s.BitRotProb)
	if s.DesyncProb > 0 {
		parts = append(parts, fmt.Sprintf("desync=%g:%d", s.DesyncProb, s.desyncFrames()))
	}
	add("duty", s.DutyCycleOff)
	if s.APOutageProb > 0 {
		parts = append(parts, fmt.Sprintf("apoutage=%g:%d", s.APOutageProb, s.outageFrames()))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

func (s Spec) desyncFrames() int {
	if s.DesyncFrames > 0 {
		return s.DesyncFrames
	}
	return DefaultDesyncFrames
}

func (s Spec) outageFrames() int {
	if s.APOutageFrames > 0 {
		return s.APOutageFrames
	}
	return DefaultOutageFrames
}

// Plan binds a Spec to a seed. Plans are immutable and stateless: every
// query is a pure function of (seed, kind, node, event), so they are safe
// to share across goroutines and always agree regardless of query order.
type Plan struct {
	Spec Spec
	seed int64
}

// NewPlan returns the fault plan for a spec and seed.
func NewPlan(spec Spec, seed int64) *Plan {
	return &Plan{Spec: spec, seed: seed}
}

// roll maps (seed, kind, node, event) to a uniform [0, 1) draw via the
// SplitMix64 finalizer — the same mixing the par/channel substreams use,
// applied to a composite stream index so kinds, nodes and events never
// share a draw.
func (p *Plan) roll(kind Kind, node uint16, event int64) float64 {
	z := uint64(p.seed)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z ^= uint64(kind) * 0xD6E8FEB86659FD93
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z ^= uint64(node)*0xCA5A826395121157 + uint64(event)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// CrashAt reports whether the node crashes (and reboots, losing update
// state) at the given protocol frame.
func (p *Plan) CrashAt(node uint16, frame int64) bool {
	return p.Spec.CrashProb > 0 && p.roll(KindCrash, node, frame) < p.Spec.CrashProb
}

// Asleep reports whether the node's duty cycle has it sleeping through the
// given frame.
func (p *Plan) Asleep(node uint16, frame int64) bool {
	return p.Spec.DutyCycleOff > 0 && p.roll(KindDutyCycle, node, frame) < p.Spec.DutyCycleOff
}

// Desynced reports whether the node is inside an RX desync burst at the
// given frame: a burst starting at any of the preceding DesyncFrames
// frames (inclusive) covers it.
func (p *Plan) Desynced(node uint16, frame int64) bool {
	if p.Spec.DesyncProb <= 0 {
		return false
	}
	n := int64(p.Spec.desyncFrames())
	for g := frame - n + 1; g <= frame; g++ {
		if g >= 0 && p.roll(KindDesync, node, g) < p.Spec.DesyncProb {
			return true
		}
	}
	return false
}

// APDown reports whether the AP is inside an outage window at the given
// frame. Outages are node-independent: everybody misses the frame.
func (p *Plan) APDown(frame int64) bool {
	if p.Spec.APOutageProb <= 0 {
		return false
	}
	n := int64(p.Spec.outageFrames())
	for g := frame - n + 1; g <= frame; g++ {
		if g >= 0 && p.roll(KindAPOutage, 0, g) < p.Spec.APOutageProb {
			return true
		}
	}
	return false
}

// WriteFails reports whether the node's i-th flash program fails.
func (p *Plan) WriteFails(node uint16, write int64) bool {
	return p.Spec.FlashFailProb > 0 && p.roll(KindFlashWrite, node, write) < p.Spec.FlashFailProb
}

// BitRot returns the bit to flip in the node's i-th flash write of n
// bytes, or ok=false when the write stores cleanly.
func (p *Plan) BitRot(node uint16, write int64, n int) (byteIdx, bitIdx int, ok bool) {
	if p.Spec.BitRotProb <= 0 || n <= 0 {
		return 0, 0, false
	}
	if p.roll(KindBitRot, node, write) >= p.Spec.BitRotProb {
		return 0, 0, false
	}
	// A second independent draw places the flip inside the write.
	u := p.roll(KindBitRot, node, write+(1<<40))
	bit := int(u * float64(n*8))
	if bit >= n*8 {
		bit = n*8 - 1
	}
	return bit / 8, bit % 8, true
}

// NodeFaults binds a plan to one node and counts its flash writes, making
// the write-fault draws a fixed function of (seed, node, write index). It
// implements the flash.WriteFaults hook. Like the protocol state it rides
// on, it is single-goroutine.
type NodeFaults struct {
	plan   *Plan
	node   uint16
	writes int64
}

// Node returns the per-node fault injector for the plan (nil-safe: a nil
// plan yields a nil injector, which flash treats as "no faults").
func (p *Plan) Node(id uint16) *NodeFaults {
	if p == nil {
		return nil
	}
	return &NodeFaults{plan: p, node: id}
}

// FaultWrite is the flash.WriteFaults hook: consulted once per program
// operation, it either fails the write, flips one stored bit, or lets the
// write through untouched. A nil injector (from a nil plan) passes every
// write, so installing plan.Node(id) unconditionally is safe.
func (n *NodeFaults) FaultWrite(addr int, data []byte) (flipByte, flipBit int, err error) {
	if n == nil {
		return -1, 0, nil
	}
	w := n.writes
	n.writes++
	if n.plan.WriteFails(n.node, w) {
		return -1, 0, fmt.Errorf("fault: %w at %#x (node %d, write %d)", ErrFlashWrite, addr, n.node, w)
	}
	if b, bit, ok := n.plan.BitRot(n.node, w, len(data)); ok {
		return b, bit, nil
	}
	return -1, 0, nil
}
