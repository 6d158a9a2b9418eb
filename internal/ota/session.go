package ota

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/uwsdr/tinysdr/internal/fpga"
	"github.com/uwsdr/tinysdr/internal/lora"
	"github.com/uwsdr/tinysdr/internal/mcu"
	"github.com/uwsdr/tinysdr/internal/radio"
)

// BackboneParams is the §5.3 OTA link configuration: SF8, 500 kHz,
// coding rate 4/6, 8-chirp preamble, 60-byte packets.
func BackboneParams() lora.Params {
	return lora.Params{
		SF: 8, BW: 500e3, CR: lora.CR46, PreambleLen: 8, SyncWord: 0x34,
		ExplicitHeader: true, CRC: true, OSR: 1,
	}
}

// Session drives one node's firmware update from the AP side, advancing the
// node's simulated clock through every exchange. Packet losses are drawn
// from the analytic LoRa link model at the session's RSSI.
type Session struct {
	Node *Node
	// RSSIdBm is the received power at the node (and, symmetrically, at
	// the AP for ACKs — both ends transmit at 14 dBm in §5.3).
	RSSIdBm float64
	// PHY is the backbone configuration. It is fixed for the session's
	// life: the session's loss table caches packet error rates on that
	// premise, and nothing assigns PHY after NewSession.
	PHY lora.Params
	// MaxRetries bounds per-packet retransmissions before the session
	// fails (the AP gives up on unreachable nodes).
	MaxRetries int

	loss lossModel
	// link caches the packet error rates at RSSIdBm; lost rebuilds it when
	// RSSIdBm changes.
	link *lossTable
}

// NewSession returns a session for one node at the given link RSSI.
func NewSession(node *Node, rssiDBm float64, seed int64) *Session {
	return &Session{
		Node:       node,
		RSSIdBm:    rssiDBm,
		PHY:        BackboneParams(),
		MaxRetries: 50,
		loss:       newLossModel(seed),
	}
}

// Report summarizes one programming session for the Fig. 14 analysis.
type Report struct {
	Duration        time.Duration
	DataPackets     int
	Retransmissions int
	AirBytes        int
	Decompress      DecompressStats
	EnergyJ         float64 // filled by callers that scope a ledger window
}

// Per-exchange processing allowances (MCU turnaround on both ends; the
// handlers are interrupt-driven, so these are sub-millisecond).
const (
	apProcessing   = 200 * time.Microsecond
	nodeProcessing = 200 * time.Microsecond
	ackPayloadLen  = frameOverhead
	reqPayloadLen  = frameOverhead + manifestLen
)

// lossModel draws frame losses from the analytic LoRa link model for
// unicast and broadcast sessions alike: one rng draw per frame, compared
// against the frame's packet error rate on its link (a lossTable). Every
// frame takes exactly one draw, in transmission order, so the loss stream
// depends only on the seed and the frames sent.
type lossModel struct {
	rng *rand.Rand
}

func newLossModel(seed int64) lossModel {
	return lossModel{rng: rand.New(rand.NewSource(seed))}
}

// lost draws whether a frameLen-byte frame on link t is lost, computing
// the link's rate for that length on first use.
func (l *lossModel) lost(phy *lora.Params, t *lossTable, frameLen int) bool {
	per := t.rates[frameLen]
	if per < 0 {
		per = lora.PacketErrorRate(*phy, frameLen, t.rssiDBm, radio.SX1276NoiseFigureDB)
		t.rates[frameLen] = per
	}
	return l.rng.Float64() < per
}

// lossTable holds one link's packet error rates, indexed by frame length.
// A session's PHY and noise figure never change, so on a link of fixed
// RSSI the rate depends only on the length. The table covers every frame
// MarshalBinary can produce: a 255-byte payload plus the frame overhead.
type lossTable struct {
	rssiDBm float64
	rates   [frameOverhead + 256]float64 // negative until computed
}

// init resets t to the link at rssiDBm with no rate computed.
func (t *lossTable) init(rssiDBm float64) {
	t.rssiDBm = rssiDBm
	for i := range t.rates {
		t.rates[i] = -1
	}
}

// lost draws whether a frameLen-byte frame on the session's link is lost.
func (s *Session) lost(frameLen int) bool {
	if s.link == nil || s.link.rssiDBm != s.RSSIdBm {
		s.link = new(lossTable)
		s.link.init(s.RSSIdBm)
	}
	return s.loss.lost(&s.PHY, s.link, frameLen)
}

// airTime is the on-air duration of a backbone packet with n payload bytes.
func (s *Session) airTime(n int) time.Duration { return s.PHY.TimeOnAir(n) }

// exchange transmits one frame and waits for the expected reply, with
// retransmission on data or reply loss. It advances the node clock through
// airtimes, turnarounds and processing, and returns the reply.
func (s *Session) exchange(f *Frame, handle func(*Frame) (*Frame, error), replyLen int) (*Frame, int, error) {
	clock := s.Node.Clock
	wire, err := f.MarshalBinary()
	if err != nil {
		return nil, 0, err
	}
	retries := 0
	for {
		if retries > s.MaxRetries {
			return nil, retries, fmt.Errorf("ota: device %d unreachable after %d retries (%v at %.1f dBm)",
				f.Device, retries, f.Type, s.RSSIdBm)
		}
		// AP transmit.
		clock.Advance(s.airTime(len(wire)) + apProcessing)
		if s.lost(len(wire)) {
			// Node missed it; AP times out waiting for the reply.
			clock.Advance(s.airTime(replyLen) + nodeProcessing)
			retries++
			continue
		}
		var parsed Frame
		if err := parsed.UnmarshalBinary(wire); err != nil {
			return nil, retries, err
		}
		reply, err := handle(&parsed)
		if err != nil {
			return nil, retries, err
		}
		// Node turnaround and reply.
		clock.Advance(radio.RXToTXTime + nodeProcessing)
		clock.Advance(s.airTime(replyLen))
		if s.lost(replyLen) {
			retries++
			continue
		}
		return reply, retries, nil
	}
}

// Program runs the complete §3.4 update sequence against the node and
// returns the session report. design accompanies FPGA updates for the
// resource model (see Node.Finish).
func (s *Session) Program(u *Update, design *fpga.Design) (*Report, error) {
	if err := s.PHY.Validate(); err != nil {
		return nil, err
	}
	node := s.Node
	start := node.Clock.Now()
	rep := &Report{}

	// Wake the backbone and put the MCU in its transfer posture.
	d, err := node.Backbone.Transition(radio.StateRX)
	if err != nil {
		return nil, err
	}
	node.Clock.Advance(d)
	node.MCU.SetState(mcu.StateIdle)

	// Program request -> ready.
	m := u.Manifest()
	mb, err := m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	req := &Frame{Type: FrameProgramRequest, Device: node.ID, Payload: mb}
	reply, retries, err := s.exchange(req, node.HandleProgramRequest, reqPayloadLen)
	if err != nil {
		return nil, err
	}
	rep.Retransmissions += retries
	if reply.Type != FrameReady {
		return nil, fmt.Errorf("ota: expected ready, got %v", reply.Type)
	}

	// Data transfer with per-packet ACK.
	for seq, chunk := range u.Chunks {
		f := &Frame{Type: FrameData, Device: node.ID, Seq: uint16(seq), Payload: chunk}
		ack, retries, err := s.exchange(f, node.HandleData, ackPayloadLen)
		if err != nil {
			return nil, err
		}
		if ack.Type != FrameAck || ack.Seq != uint16(seq) {
			return nil, fmt.Errorf("ota: bad ack %v seq %d", ack.Type, ack.Seq)
		}
		rep.DataPackets++
		rep.Retransmissions += retries
		rep.AirBytes += (retries + 1) * (len(chunk) + frameOverhead)
	}

	// Finish: acknowledged, then the node reprograms itself.
	fin := &Frame{Type: FrameFinish, Device: node.ID}
	finish := func(f *Frame) (*Frame, error) {
		if f.Type != FrameFinish {
			return nil, fmt.Errorf("ota: expected finish")
		}
		return &Frame{Type: FrameAck, Device: node.ID, Seq: f.Seq}, nil
	}
	if _, retries, err = s.exchange(fin, finish, ackPayloadLen); err != nil {
		return nil, err
	}
	rep.Retransmissions += retries

	stats, err := node.Finish(design)
	if err != nil {
		return nil, err
	}
	rep.Decompress = stats
	rep.Duration = node.Clock.Now() - start
	return rep, nil
}
