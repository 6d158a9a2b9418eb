package dsp

import (
	"fmt"
	"math"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// ChirpGen is the Chirp Generator block of the tinySDR LoRa modem (Fig. 6).
// It synthesizes CSS chirp symbols with a frequency accumulator driving the
// phase-accumulator/LUT datapath — the "squared phase accumulator and two
// lookup tables for Sin and Cos" the paper describes. Because frequency
// advances in discrete per-sample steps, chirps of different slopes are only
// approximately orthogonal, which is the effect §6 of the paper measures.
type ChirpGen struct {
	// SF is the spreading factor, 6..12. A symbol spans 2^SF chips and
	// encodes SF bits as a cyclic shift of the base upchirp.
	SF int
	// OSR is the oversampling ratio in samples per chip (a power of two).
	// The radio interface runs at 4 MHz; after the FPGA front-end the
	// stream is at OSR x bandwidth.
	OSR int
	// Ideal selects an infinite-precision waveform (float phase, exact
	// exponentials) instead of the FPGA's LUT datapath. It models
	// commercial silicon like the SX1276 when used as a comparator.
	Ideal bool
}

// Validate reports whether the generator parameters are representable on the
// tinySDR FPGA.
func (g ChirpGen) Validate() error {
	if g.SF < 6 || g.SF > 12 {
		return fmt.Errorf("dsp: spreading factor %d out of LoRa range 6..12", g.SF)
	}
	if !IsPowerOfTwo(g.OSR) {
		return fmt.Errorf("dsp: oversampling ratio %d must be a power of two", g.OSR)
	}
	return nil
}

// NumChips returns the number of chips per symbol, 2^SF.
func (g ChirpGen) NumChips() int { return 1 << g.SF }

// SymbolLen returns the number of samples per symbol.
func (g ChirpGen) SymbolLen() int { return g.NumChips() * g.OSR }

// Upchirp returns one symbol whose value is the given cyclic shift
// (0 <= shift < 2^SF). Shift 0 is the base upchirp used in preambles.
func (g ChirpGen) Upchirp(shift int) iq.Samples { return g.symbol(shift, false, g.SymbolLen()) }

// Downchirp returns one base downchirp symbol (linearly decreasing
// frequency), used in the LoRa start-of-frame delimiter and as the
// demodulator's dechirp reference.
func (g ChirpGen) Downchirp() iq.Samples { return g.symbol(0, true, g.SymbolLen()) }

func (g ChirpGen) symbol(shift int, down bool, count int) iq.Samples {
	st := NewChirpStream(g)
	return st.Symbol(shift, down, count)
}

// ChirpStream generates chirp symbols with phase continuity across symbol
// boundaries, exactly as the FPGA's running phase accumulator does. A
// phase-continuous preamble is what lets the demodulator detect symbols in
// windows that straddle symbol boundaries without coherence loss.
type ChirpStream struct {
	g      ChirpGen
	phase  uint32
	phaseF float64
}

// NewChirpStream returns a stream for the given generator configuration,
// validating it once up front.
func NewChirpStream(g ChirpGen) *ChirpStream {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return &ChirpStream{g: g}
}

// Symbol appends one chirp symbol of count samples with the given cyclic
// shift and slope direction, continuing the accumulated phase.
func (st *ChirpStream) Symbol(shift int, down bool, count int) iq.Samples {
	return st.SymbolInto(make(iq.Samples, count), shift, down)
}

// SymbolInto writes one chirp symbol of len(dst) samples with the given
// cyclic shift and slope direction into dst, continuing the accumulated
// phase, and returns dst. It performs no allocation — the primitive behind
// the zero-alloc ModulateInto waveform path.
func (st *ChirpStream) SymbolInto(dst iq.Samples, shift int, down bool) iq.Samples {
	g := st.g
	s := g.SymbolLen()
	out := dst
	count := len(dst)
	m := shift * g.OSR % s
	scale := 1 / (float64(s) * float64(g.OSR))
	for n := 0; n < count; n++ {
		// Instantaneous frequency in cycles/sample, swept across
		// +-BW/2 and wrapped cyclically at the symbol boundary.
		f := float64(m)*scale - 0.5/float64(g.OSR)
		if down {
			f = -f
		}
		if g.Ideal {
			ang := 2 * math.Pi * st.phaseF
			out[n] = complex(math.Cos(ang), math.Sin(ang))
			st.phaseF += f
			st.phaseF -= math.Floor(st.phaseF)
		} else {
			out[n] = lutSample(st.phase)
			st.phase += uint32(int32(math.Round(f * (1 << 32))))
		}
		m++
		if m == s {
			m = 0
		}
	}
	return out
}

// Upchirp appends one full upchirp symbol with the given shift.
func (st *ChirpStream) Upchirp(shift int) iq.Samples {
	return st.Symbol(shift, false, st.g.SymbolLen())
}

// DechirpInto multiplies x by the conjugate of ref element-wise into dst —
// the Complex Multiplier block of the demodulator — and returns dst. All
// three buffers must have equal length; dst may alias x. It performs no
// allocation.
func DechirpInto(dst, x, ref iq.Samples) iq.Samples {
	if len(x) != len(ref) {
		panic(fmt.Sprintf("dsp: dechirp length mismatch %d != %d", len(x), len(ref)))
	}
	if len(dst) != len(x) {
		panic(fmt.Sprintf("dsp: dechirp dst length mismatch %d != %d", len(dst), len(x)))
	}
	for i := range x {
		r := ref[i]
		dst[i] = x[i] * complex(real(r), -imag(r))
	}
	return dst
}

// Dechirp multiplies x by the conjugate of ref element-wise into a new
// buffer — the Complex Multiplier block of the demodulator. The buffers must
// have equal length.
func Dechirp(x, ref iq.Samples) iq.Samples {
	return DechirpInto(make(iq.Samples, len(x)), x, ref)
}

// FoldBinsInto combines the FFT magnitudes of a dechirped oversampled symbol
// into len(dst) decision bins and returns dst. With oversampling, the energy
// of cyclic shift k splits between FFT bins k and k-N (mod S); folding
// re-merges them so the detector sees one peak per candidate shift. dst must
// not alias mags. It performs no allocation.
func FoldBinsInto(dst, mags []float64) []float64 {
	s := len(mags)
	numChips := len(dst)
	if s == numChips {
		copy(dst, mags)
		return dst
	}
	for k := 0; k < numChips; k++ {
		dst[k] = mags[k] + mags[(s-numChips+k)%s]
	}
	return dst
}

// FoldBins combines the FFT magnitudes of a dechirped oversampled symbol into
// numChips decision bins.
func FoldBins(mags []float64, numChips int) []float64 {
	return FoldBinsInto(make([]float64, numChips), mags)
}

// FoldPeakInto fuses MagnitudesInto, FoldBinsInto and the Symbol Detector's
// peak scan into one pass over the FFT output x: it writes the folded
// squared-magnitude decision bins into dst and returns the winning bin, its
// power, and the total folded power (ties keep the lowest bin, matching
// the sequential scan). len(dst) is the number of decision bins and must
// divide len(x); dst must not alias x's storage. Each folded bin is the sum
// of the two image magnitudes rounded exactly as the unfused
// MagnitudesInto→FoldBinsInto pipeline rounds them, so the fusion is
// bit-exact. It performs no allocation.
func FoldPeakInto(dst []float64, x iq.Samples) (bin int, peak, sum float64) {
	s := len(x)
	nc := len(dst)
	if nc == s {
		for i, v := range x {
			m := real(v)*real(v) + imag(v)*imag(v)
			dst[i] = m
			sum += m
			if m > peak {
				peak, bin = m, i
			}
		}
		return bin, peak, sum
	}
	base := s - nc // k's image bin k-N mod S never wraps for k < nc
	for k := 0; k < nc; k++ {
		v, u := x[k], x[base+k]
		m0 := real(v)*real(v) + imag(v)*imag(v)
		m1 := real(u)*real(u) + imag(u)*imag(u)
		m := m0 + m1
		dst[k] = m
		sum += m
		if m > peak {
			peak, bin = m, k
		}
	}
	return bin, peak, sum
}
