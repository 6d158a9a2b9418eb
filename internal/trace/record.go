package trace

import (
	"fmt"
	"math"
	"sort"

	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/par"
	"github.com/uwsdr/tinysdr/internal/phy"
)

// Recorder is the capture Sink: installed as a tap on a live Link, it
// models the receive ADC. Each packet is auto-ranged (full scale = the
// packet's peak |I|/|Q|, so a -120 dBm waveform keeps its resolution),
// encoded to int16 codes, content-hashed — and then decoded back into the
// caller's buffer IN PLACE, so the live demodulator consumes exactly the
// samples a replay will reconstruct. Packets must arrive in sequence from
// k = 0, which is how Link.Run and a Probe loop deliver them.
type Recorder struct {
	meta    Meta
	packets []Packet
	blobs   []Blob
	byHash  map[uint64]int
	powerMW float64
	next    int
}

// NewRecorder returns a recorder for the given capture description.
func NewRecorder(meta Meta) (*Recorder, error) {
	if meta.Bits < 1 || meta.Bits > 16 {
		return nil, fmt.Errorf("trace: quantization %d bits outside [1, 16]", meta.Bits)
	}
	if !(meta.SampleRate > 0) || math.IsInf(meta.SampleRate, 0) {
		return nil, fmt.Errorf("trace: sample rate %g", meta.SampleRate)
	}
	if meta.PHY == "" {
		return nil, fmt.Errorf("trace: recorder needs a phy name")
	}
	return &Recorder{meta: meta, byHash: map[uint64]int{}}, nil
}

// Name implements Sink.
func (r *Recorder) Name() string { return "trace-recorder" }

// SampleRate implements Sink.
func (r *Recorder) SampleRate() float64 { return r.meta.SampleRate }

// WritePacket implements Sink: capture packet k and quantize sig in
// place.
func (r *Recorder) WritePacket(k int, sig iq.Samples) error {
	if k != r.next {
		return fmt.Errorf("trace: recorder got packet %d, want %d (packets must arrive in order)", k, r.next)
	}
	if len(sig) > MaxPacketSamples {
		return fmt.Errorf("trace: packet of %d samples over %d", len(sig), MaxPacketSamples)
	}
	fullScale := autoFullScale(sig)
	codes := iq.EncodeInt16(sig, r.meta.Bits, fullScale)
	h := HashCodes(codes)
	if _, dup := r.byHash[h]; !dup {
		r.byHash[h] = len(r.blobs)
		r.blobs = append(r.blobs, Blob{Hash: h, Codes: codes})
	}
	// The ADC contract: the demodulator (and Run's power accumulation)
	// sees the dequantized samples, which replay reconstructs bit-exactly.
	iq.DecodeInt16Into(sig, codes, r.meta.Bits, fullScale)
	r.powerMW += sig.Power()
	r.packets = append(r.packets, Packet{Hash: h, Samples: len(sig), FullScale: fullScale})
	r.next++
	return nil
}

// autoFullScale picks the converter full scale for one packet: its peak
// component amplitude, so quantization resolution follows the signal
// level instead of vanishing for weak captures. An all-zero packet gets
// full scale 1 (any value encodes zeros identically).
func autoFullScale(sig iq.Samples) float64 {
	peak := 0.0
	for _, x := range sig {
		if v := math.Abs(real(x)); v > peak {
			peak = v
		}
		if v := math.Abs(imag(x)); v > peak {
			peak = v
		}
	}
	if peak == 0 {
		return 1
	}
	return peak
}

// Record captures a trace from a live link: meta.Payload is pushed
// through packet indices 0..packets-1 with the recorder tapped on the
// channel output, and the recorded per-packet losses and RSSI — the
// metrics a replay must reproduce byte-for-byte — land in the manifest.
// The link's existing tap is replaced and removed again on return.
func Record(link *phy.Link, meta Meta, packets int) (*Trace, error) {
	if packets <= 0 {
		return nil, fmt.Errorf("trace: record needs at least one packet, got %d", packets)
	}
	if packets > MaxPackets {
		return nil, fmt.Errorf("trace: %d packets over %d", packets, MaxPackets)
	}
	rec, err := NewRecorder(meta)
	if err != nil {
		return nil, err
	}
	if err := link.Tap(rec); err != nil {
		return nil, err
	}
	defer link.Tap(nil)
	failed := make([]bool, packets)
	failures := 0
	for k := 0; k < packets; k++ {
		lost, err := link.Probe(meta.Payload, k)
		if err != nil {
			return nil, fmt.Errorf("trace: record packet %d: %w", k, err)
		}
		if lost {
			failed[k] = true
			failures++
		}
	}
	sort.Slice(rec.blobs, func(i, j int) bool { return rec.blobs[i].Hash < rec.blobs[j].Hash })
	t := &Trace{
		Manifest: Manifest{
			Meta:     meta,
			Failures: failures,
			RSSIdBm:  iq.MilliwattsToDBm(rec.powerMW / float64(packets)),
			Packets:  rec.packets,
			Failed:   failed,
		},
		Blobs: rec.blobs,
	}
	return t, t.validate()
}

// PacketSource is the replay Source: it serves a trace's packets through
// one scratch buffer, decoding each blob with the stored per-packet full
// scale. Like the modems it stands in for it is single-goroutine; give
// each replay worker its own (NewSource is cheap — blobs are shared
// read-only).
type PacketSource struct {
	m      *Manifest
	codes  map[uint64][]byte
	buf    iq.Samples
	device string
}

// NewSource returns a Source over a validated trace.
func NewSource(t *Trace) (*PacketSource, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	return newSource(t), nil
}

// newSource returns a Source over a trace the caller has validated.
func newSource(t *Trace) *PacketSource {
	codes := make(map[uint64][]byte, len(t.Blobs))
	for i := range t.Blobs {
		codes[t.Blobs[i].Hash] = t.Blobs[i].Codes
	}
	return &PacketSource{m: &t.Manifest, codes: codes, device: "trace:" + t.Manifest.PHY}
}

// Name implements Source.
func (s *PacketSource) Name() string { return s.device }

// SampleRate implements Source.
func (s *PacketSource) SampleRate() float64 { return s.m.SampleRate }

// Packets implements Source.
func (s *PacketSource) Packets() int { return len(s.m.Packets) }

// ReadPacket implements Source; the returned slice is scratch, valid
// until the next call.
func (s *PacketSource) ReadPacket(k int) (iq.Samples, error) {
	if k < 0 || k >= len(s.m.Packets) {
		return nil, fmt.Errorf("trace: packet %d outside trace of %d", k, len(s.m.Packets))
	}
	p := s.m.Packets[k]
	if cap(s.buf) < p.Samples {
		s.buf = make(iq.Samples, p.Samples)
	}
	buf := s.buf[:p.Samples]
	iq.DecodeInt16Into(buf, s.codes[p.Hash], s.m.Bits, p.FullScale)
	return buf, nil
}

// OpenReplay binds the trace to a fresh RX modem of its recorded PHY,
// returning a Link whose packets come from the trace instead of a live
// modulator and channel.
func OpenReplay(t *Trace) (*phy.Link, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	return openReplay(t)
}

// openReplay is OpenReplay over a trace the caller has validated.
func openReplay(t *Trace) (*phy.Link, error) {
	rx, err := phy.New(t.Manifest.PHY)
	if err != nil {
		return nil, err
	}
	return phy.OpenReplay(newSource(t), rx)
}

// powerTap measures per-packet received power during replay, matching the
// accumulation Run performs on a live link. It never modifies the
// samples (they are already quantized).
type powerTap struct {
	rate float64
	mw   float64
}

func (p *powerTap) Name() string        { return "trace-power" }
func (p *powerTap) SampleRate() float64 { return p.rate }
func (p *powerTap) WritePacket(k int, sig iq.Samples) error {
	p.mw = sig.Power()
	return nil
}

// packetResult is one replayed packet's outcome.
type packetResult struct {
	lost bool
	mw   float64
}

// replay runs every packet of the trace across a worker pool, each worker
// holding its own RX modem and source. The trace is validated, and its
// blobs hashed, once for all workers. Per-packet results are indexed by
// packet, so aggregation order — and therefore every derived metric bit —
// is independent of the worker count.
func replay(t *Trace, workers int) ([]packetResult, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	n := len(t.Manifest.Packets)
	type state struct {
		link *phy.Link
		tap  *powerTap
	}
	return par.Trials(workers, n,
		func() (*state, error) {
			link, err := openReplay(t)
			if err != nil {
				return nil, err
			}
			tap := &powerTap{rate: t.Manifest.SampleRate}
			if err := link.Tap(tap); err != nil {
				return nil, err
			}
			return &state{link: link, tap: tap}, nil
		},
		func(st *state, k int) (packetResult, error) {
			lost, err := st.link.Probe(t.Manifest.Payload, k)
			if err != nil {
				return packetResult{}, err
			}
			return packetResult{lost: lost, mw: st.tap.mw}, nil
		})
}

// Replay re-demodulates the whole trace and returns the measured Stats,
// computed exactly as a live Run computes them: failures counted and
// packet powers summed in packet order. The result is byte-identical at
// any worker count.
func Replay(t *Trace, workers int) (phy.Stats, error) {
	results, err := replay(t, workers)
	if err != nil {
		return phy.Stats{}, err
	}
	return aggregate(results), nil
}

// aggregate computes the Stats of per-packet results, in packet order.
func aggregate(results []packetResult) phy.Stats {
	st := phy.Stats{Packets: len(results)}
	var mw float64
	for _, r := range results {
		if r.lost {
			st.Failures++
		}
		mw += r.mw
	}
	st.PER = float64(st.Failures) / float64(st.Packets)
	st.RSSIdBm = iq.MilliwattsToDBm(mw / float64(st.Packets))
	return st
}

// Verify replays the trace and diffs the result against the recorded
// manifest byte-for-byte: every per-packet loss flag must match, and the
// recomputed PER and RSSI must equal the recorded ones to the last bit.
// This is the cross-version A/B gate: any demodulator change that bends
// behavior on committed waveforms fails here.
func Verify(t *Trace, workers int) error {
	results, err := replay(t, workers)
	if err != nil {
		return err
	}
	for k, r := range results {
		if r.lost != t.Manifest.Failed[k] {
			return fmt.Errorf("trace: packet %d replayed lost=%v, recorded lost=%v", k, r.lost, t.Manifest.Failed[k])
		}
	}
	st := aggregate(results)
	if st.Failures != t.Manifest.Failures {
		return fmt.Errorf("trace: replay counted %d failures, recorded %d", st.Failures, t.Manifest.Failures)
	}
	if math.Float64bits(st.RSSIdBm) != math.Float64bits(t.Manifest.RSSIdBm) {
		return fmt.Errorf("trace: replay RSSI %v (%016x), recorded %v (%016x)",
			st.RSSIdBm, math.Float64bits(st.RSSIdBm), t.Manifest.RSSIdBm, math.Float64bits(t.Manifest.RSSIdBm))
	}
	return nil
}
