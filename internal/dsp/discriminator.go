package dsp

import (
	"fmt"
	"math"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// Discriminator fuses a channel-select FIR with FM quadrature phase
// differentiation — the front half of the GFSK receiver (§4.2). Each
// filtered sample is consumed by the differentiator straight out of the MAC
// loop, so the filtered waveform never round-trips through a scratch
// buffer, and the incremental Extend contract lets chunked consumers (the
// adaptive BER sweep) stop mid-signal without recomputing the prefix.
//
// A Discriminator carries one sample of state between Extend calls and is
// NOT safe for concurrent use.
type Discriminator struct {
	fir  *FIR
	prev complex128 // last filtered sample emitted
	pos  int        // samples of the current signal already discriminated
}

// NewDiscriminator returns a discriminator running behind the given
// channel-select filter.
func NewDiscriminator(f *FIR) *Discriminator {
	if f == nil {
		panic("dsp: discriminator requires a filter")
	}
	return &Discriminator{fir: f}
}

// Reset begins a new signal.
func (d *Discriminator) Reset() {
	d.prev = 0
	d.pos = 0
}

// ExtendInto filters x from the first sample not yet processed since Reset
// up to upto (clamped to len(x)) and writes the per-sample instantaneous
// frequency of the filtered signal, in radians per sample, into the same
// range of dst, returning dst[:min(upto,len(x))].
// dst[0] is 0 (no previous sample). The filter's edge clamping is computed
// against the full signal length, so the values are identical whether the
// signal is processed in one call or many — chunked runs are exact
// prefixes of a full run. It performs no allocation.
func (d *Discriminator) ExtendInto(dst []float64, x iq.Samples, upto int) []float64 {
	n := len(x)
	if upto > n {
		upto = n
	}
	if len(dst) < upto {
		panic(fmt.Sprintf("dsp: discriminator dst length %d < %d", len(dst), upto))
	}
	taps := d.fir.taps
	delay := (len(taps) - 1) / 2
	prev := d.prev
	for i := d.pos; i < upto; i++ {
		// Real taps: accumulate the I and Q rails separately, matching
		// FIR.FilterInto's two-multiply MAC.
		var re, im float64
		kLo := i + delay - (n - 1)
		if kLo < 0 {
			kLo = 0
		}
		kHi := i + delay
		if kHi > len(taps)-1 {
			kHi = len(taps) - 1
		}
		for k := kLo; k <= kHi; k++ {
			v := x[i+delay-k]
			t := taps[k]
			re += real(v) * t
			im += imag(v) * t
		}
		acc := complex(re, im)
		if i == 0 {
			dst[0] = 0
		} else {
			v := acc * complex(real(prev), -imag(prev))
			dst[i] = math.Atan2(imag(v), real(v))
		}
		prev = acc
	}
	d.prev = prev
	if upto > d.pos {
		d.pos = upto
	}
	return dst[:upto]
}

// DiscriminateInto filters x and writes the instantaneous frequency of the
// whole filtered signal into dst in one fused pass, returning dst. len(dst)
// must be at least len(x). It performs no allocation.
func (d *Discriminator) DiscriminateInto(dst []float64, x iq.Samples) []float64 {
	d.Reset()
	return d.ExtendInto(dst, x, len(x))
}
