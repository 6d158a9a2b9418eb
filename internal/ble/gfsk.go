package ble

import (
	"fmt"
	"math"
	"math/cmplx"

	"github.com/uwsdr/tinysdr/internal/dsp"
	"github.com/uwsdr/tinysdr/internal/iq"
)

// GFSK modulation parameters for BLE 4.0: Gaussian BT product 0.5 and
// modulation index 0.5 (within the 0.45-0.55 the spec allows), i.e. a
// ±250 kHz deviation at 1 Mbps.
const (
	// BT is the Gaussian filter bandwidth-time product.
	BT = 0.5
	// ModulationIndex is the frequency-deviation index h.
	ModulationIndex = 0.5
	// gaussianSpan is the pulse truncation in symbols.
	gaussianSpan = 3
)

// Modulator converts air bytes into the baseband GFSK waveform exactly as
// the tinySDR FPGA does (§4.2): upsample the bit stream, apply the Gaussian
// filter, integrate the frequency trajectory into phase, and map phase
// through sine/cosine.
type Modulator struct {
	// SPS is samples per symbol; at BLE's 1 Mbps, 4 SPS matches the
	// AT86RF215's 4 MHz I/Q interface.
	SPS    int
	filter *dsp.FIR
}

// NewModulator returns a GFSK modulator at the given oversampling.
func NewModulator(sps int) (*Modulator, error) {
	if sps < 2 || sps > 64 {
		return nil, fmt.Errorf("ble: samples per symbol %d outside 2..64", sps)
	}
	return &Modulator{SPS: sps, filter: dsp.NewGaussian(BT, sps, gaussianSpan)}, nil
}

// SampleRate returns the waveform rate in Hz.
func (m *Modulator) SampleRate() float64 { return BitRate * float64(m.SPS) }

// Modulate converts bits into I/Q samples. The waveform includes
// gaussianSpan/2 symbols of filter ramp at each end.
func (m *Modulator) Modulate(bits []int) iq.Samples {
	// NRZ at sample rate.
	pad := gaussianSpan / 2
	nrz := make([]float64, (len(bits)+2*pad)*m.SPS)
	for i, b := range bits {
		v := -1.0
		if b != 0 {
			v = 1.0
		}
		for s := 0; s < m.SPS; s++ {
			nrz[(i+pad)*m.SPS+s] = v
		}
	}
	// Pad edges with the value of the adjacent bit to avoid spectral
	// splatter from a hard edge.
	if len(bits) > 0 {
		for s := 0; s < pad*m.SPS; s++ {
			nrz[s] = nrz[pad*m.SPS]
			nrz[len(nrz)-1-s] = nrz[len(nrz)-1-pad*m.SPS]
		}
	}
	shaped := m.filter.FilterReal(nrz)

	// Frequency deviation: h/2 cycles per symbol at full scale.
	devPerSample := ModulationIndex / 2 / float64(m.SPS)
	out := make(iq.Samples, len(shaped))
	phase := 0.0
	for i, f := range shaped {
		out[i] = cmplx.Exp(complex(0, 2*math.Pi*phase))
		phase += f * devPerSample
		phase -= math.Floor(phase)
	}
	return out
}

// ModulateBeacon produces the waveform for one beacon on a channel.
func (m *Modulator) ModulateBeacon(b Beacon, channel int) (iq.Samples, error) {
	air, err := b.AirBytes(channel)
	if err != nil {
		return nil, err
	}
	return m.Modulate(AirBits(air)), nil
}

// Demodulator is a quadrature-discriminator GFSK receiver — the
// architecture of commercial BLE silicon like the CC2650 that Fig. 12
// measures against. The chain is: channel-select low-pass fused with phase
// differentiation (dsp.Discriminator), integrate-and-dump over each bit,
// threshold.
//
// A Demodulator reuses internal scratch buffers across calls, so it is NOT
// safe for concurrent use; give each goroutine its own instance.
type Demodulator struct {
	SPS  int
	disc *dsp.Discriminator

	// Scratch arena, grown to the largest signal seen.
	freq []float64 // instantaneous frequency track
	dec  []bool    // per-offset bit decisions for the access-address scan (Receive only)
}

// NewDemodulator returns a receiver matching the modulator's oversampling.
func NewDemodulator(sps int) (*Demodulator, error) {
	if sps < 2 || sps > 64 {
		return nil, fmt.Errorf("ble: samples per symbol %d outside 2..64", sps)
	}
	// Channel filter: ~1.1 MHz single-sided at the sample rate.
	cutoff := 0.55 / float64(sps)
	return &Demodulator{SPS: sps, disc: dsp.NewDiscriminator(dsp.NewLowpass(4*sps+1, cutoff))}, nil
}

// growFreq sizes the frequency-track scratch for a signal.
func (d *Demodulator) growFreq(n int) []float64 {
	if cap(d.freq) < n {
		d.freq = make([]float64, n)
	}
	return d.freq[:n]
}

// discriminate computes the per-sample instantaneous frequency (radians per
// sample) of the filtered signal into the demodulator's scratch, which
// stays valid until the next discriminate/StreamBits call. The filter and
// the phase differentiator run as one fused pass (dsp.Discriminator).
func (d *Demodulator) discriminate(sig iq.Samples) []float64 {
	return d.disc.DiscriminateInto(d.growFreq(len(sig)), sig)
}

// StreamReset begins incremental demodulation of a new signal for
// StreamBits.
func (d *Demodulator) StreamReset() { d.disc.Reset() }

// StreamBits recovers bit decisions [from, from+nbits) of sig, where bit
// 0's samples begin at startOffset, extending the cached frequency track
// only as far as the requested bits need. Successive calls on the same
// signal after one StreamReset reuse the already-discriminated prefix, so a
// sequential-stopping BER sweep pays only for the bits it inspects — and
// the decisions are identical to a full DemodBits pass over the same
// signal. dst is truncated and appended to; with a capacity-sized dst the
// call performs no allocation.
func (d *Demodulator) StreamBits(dst []int, sig iq.Samples, startOffset, from, nbits int) []int {
	need := startOffset + (from+nbits)*d.SPS
	if need > len(sig) {
		need = len(sig)
	}
	freq := d.growFreq(len(sig))
	d.disc.ExtendInto(freq, sig, need)
	return d.sliceBits(dst, freq[:need], startOffset+from*d.SPS, nbits)
}

// sliceBits integrates and dumps nbits bit decisions from a frequency track
// into dst, starting at startOffset samples. dst is truncated where the
// track ends. It performs no allocation.
func (d *Demodulator) sliceBits(dst []int, freq []float64, startOffset, nbits int) []int {
	dst = dst[:0]
	for i := 0; i < nbits; i++ {
		lo := startOffset + i*d.SPS
		hi := lo + d.SPS
		if hi > len(freq) {
			break
		}
		var acc float64
		for _, f := range freq[lo:hi] {
			acc += f
		}
		if acc >= 0 {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// DemodBits recovers nbits bits from sig, where the first bit's samples
// begin at startOffset. Integrate-and-dump over each bit period.
func (d *Demodulator) DemodBits(sig iq.Samples, startOffset, nbits int) []int {
	return d.sliceBits(make([]int, 0, nbits), d.discriminate(sig), startOffset, nbits)
}

// Receive locates one beacon in sig by scanning bit-timing offsets for the
// preamble + access address, then decodes and validates the whole packet.
func (d *Demodulator) Receive(sig iq.Samples, channel int) (Beacon, error) {
	const aaBits = 5 * 8 // preamble + access address
	aa := uint32(AccessAddress)
	aahdr := [5]byte{Preamble, byte(aa), byte(aa >> 8), byte(aa >> 16), byte(aa >> 24)}
	want := AirBits(aahdr[:])

	// Discriminate once and scan bit-timing offsets over the cached
	// frequency track — the filter is the dominant cost and is identical
	// for every offset.
	freq := d.discriminate(sig)
	limit := len(sig) - (aaBits+8)*d.SPS
	// The integrate-and-dump decision of the bit starting at each sample
	// offset, summed in sliceBits' order so it equals the bit sliceBits
	// returns there: every offset's 40 training bits are then table reads
	// instead of 40 fresh SPS-sample integrations.
	n := max(limit+(aaBits-1)*d.SPS+1, 0)
	if cap(d.dec) < n {
		d.dec = make([]bool, n)
	}
	dec := d.dec[:n]
	for off := range dec {
		var acc float64
		for _, f := range freq[off : off+d.SPS] {
			acc += f
		}
		dec[off] = acc >= 0
	}
scan:
	for off := 0; off <= limit; off++ {
		for i, b := range want {
			if dec[off+i*d.SPS] != (b == 1) {
				// ParseAir below rejects any training-bit error.
				continue scan
			}
		}
		// Decode the header to learn the length, then the full PDU.
		hdrBits := d.sliceBits(make([]int, 0, 16), freq, off+aaBits*d.SPS, 16)
		if len(hdrBits) < 16 {
			continue
		}
		hdr := BitsToBytes(hdrBits)
		Whiten(channel, hdr)
		length := int(hdr[1])
		if length < 6 || length > 6+MaxAdvData {
			continue
		}
		totalBits := (5 + 2 + length + 3) * 8
		bits := d.sliceBits(make([]int, 0, totalBits), freq, off, totalBits)
		if len(bits) < totalBits {
			continue
		}
		b, err := ParseAir(channel, BitsToBytes(bits))
		if err != nil {
			continue
		}
		return b, nil
	}
	return Beacon{}, fmt.Errorf("ble: no beacon found on channel %d", channel)
}
