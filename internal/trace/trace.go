// Package trace is the record/replay IQ trace store: content-addressed
// captures of the waveforms a phy.Link delivers to its demodulator, with
// enough metadata to replay them bit-exactly.
//
// A trace is recorded through the Device seam (phy.Source / phy.Sink):
// a Recorder taps the channel output of a live Link and models the
// receive ADC — it quantizes each packet in place through the same
// mid-tread converter as iq.EncodeInt16, so the recorded run itself
// demodulates the very samples a later replay will decode. Replay binds a
// PacketSource to a fresh RX modem with phy.OpenReplay, bypassing the
// modulator and channel entirely; demod output, per-packet losses and the
// RSSI accumulation are byte-identical to the recorded run, at any worker
// count.
//
// On disk (see Store) a trace is one binary manifest plus FNV-addressed
// blobs, each file exactly the iq.EncodeInt16 codes of one packet.
// Identical packets (a clean channel repeating one waveform) deduplicate
// to one blob. PERFORMANCE.md documents the corpus layout and the
// determinism contract; testdata/traces holds the committed CI corpus.
package trace

import (
	"fmt"
	"sort"
)

// Meta identifies what a trace captured: the protocol, the channel
// scenario recipe, and the quantization of the stored samples.
type Meta struct {
	// PHY is the registered protocol name the waveforms were demodulated
	// as (phy.Names()).
	PHY string
	// Seed drove the channel randomness of the recorded run.
	Seed int64
	// SampleRate is the baseband rate of every packet in Hz.
	SampleRate float64
	// Bits is the converter resolution of the stored codes (1..16).
	Bits int
	// Scenario is the sim/scenario grammar string the channel was built
	// from — provenance, not replayed (the waveforms are literal).
	Scenario string
	// Payload is the transmitted payload, the loss-accounting baseline.
	Payload []byte
}

// Packet locates one captured packet: the content hash of its code blob,
// its sample count, and the per-packet full scale the recording ADC
// auto-ranged to.
type Packet struct {
	// Hash is the FNV-64a of the packet's code bytes.
	Hash uint64
	// Samples is the packet length in complex samples.
	Samples int
	// FullScale is the converter full scale the packet was quantized at.
	FullScale float64
}

// Blob is one content-addressed run of iq.EncodeInt16 bytes.
type Blob struct {
	Hash  uint64
	Codes []byte
}

// Trace is a manifest together with the blobs its packets reference,
// sorted by hash and deduplicated.
type Trace struct {
	Manifest Manifest
	Blobs    []Blob
}

// Blob returns the codes for a hash, or nil if the trace does not carry
// it.
func (t *Trace) Blob(hash uint64) []byte {
	i := sort.Search(len(t.Blobs), func(i int) bool { return t.Blobs[i].Hash >= hash })
	if i < len(t.Blobs) && t.Blobs[i].Hash == hash {
		return t.Blobs[i].Codes
	}
	return nil
}

// validate checks that every packet's blob is present with the exact code
// length its sample count implies, and that the blob hashes are honest.
func (t *Trace) validate() error {
	for i, b := range t.Blobs {
		if i > 0 && t.Blobs[i-1].Hash >= b.Hash {
			return fmt.Errorf("trace: blobs not sorted/unique at %d", i)
		}
		if got := HashCodes(b.Codes); got != b.Hash {
			return fmt.Errorf("trace: blob %016x content hashes to %016x", b.Hash, got)
		}
	}
	for i, p := range t.Manifest.Packets {
		codes := t.Blob(p.Hash)
		if codes == nil {
			return fmt.Errorf("trace: packet %d references missing blob %016x", i, p.Hash)
		}
		if len(codes) != 4*p.Samples {
			return fmt.Errorf("trace: packet %d wants %d samples, blob %016x holds %d bytes",
				i, p.Samples, p.Hash, len(codes))
		}
	}
	return nil
}

// HashCodes is the content address of a code blob: FNV-64a over its
// bytes.
func HashCodes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
