package phy

import (
	"io"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// The chunked RX seam. Packet links hand the demodulator one whole
// waveform at a time (Modem.DemodulateFrom); real-time workloads — the
// spectrum sensors of internal/sense, and eventually hardware RX — see
// samples as an unbounded stream and must consume it in fixed-size
// chunks. Stream is that contract, generalizing the incremental paths
// that already exist per protocol (dsp.Discriminator.ExtendInto, BLE's
// StreamBits): a consumer pulls chunks, never the whole capture, so its
// working set is the chunk, not the record.

// Stream delivers a contiguous IQ sample stream in caller-sized chunks.
//
// Streams own scratch and are single-goroutine, like the Sources and
// Modems they feed; concurrent consumers each bind their own Stream.
type Stream interface {
	// Name identifies the stream, e.g. "sense:node42".
	Name() string
	// SampleRate is the stream's baseband rate in Hz.
	SampleRate() float64
	// ReadChunk fills dst from the stream and returns how many samples
	// were written. It returns 0, io.EOF once the stream is exhausted
	// (and never a short count alongside an error): every read before
	// that fills dst completely except possibly the last, so chunk
	// boundaries are determined by the consumer's buffer alone.
	ReadChunk(dst iq.Samples) (int, error)
}

// samplesStream serves one in-memory buffer as a Stream.
type samplesStream struct {
	name string
	rate float64
	rem  iq.Samples
}

// StreamSamples returns a Stream serving the buffer x — the adapter that
// lets a synthesized or captured waveform feed a chunked consumer. The
// stream reads from x without copying it; the caller must not mutate x
// until the stream is exhausted.
func StreamSamples(name string, rate float64, x iq.Samples) Stream {
	return &samplesStream{name: name, rate: rate, rem: x}
}

func (s *samplesStream) Name() string        { return s.name }
func (s *samplesStream) SampleRate() float64 { return s.rate }

func (s *samplesStream) ReadChunk(dst iq.Samples) (int, error) {
	if len(s.rem) == 0 {
		return 0, io.EOF
	}
	n := copy(dst, s.rem)
	s.rem = s.rem[n:]
	return n, nil
}
