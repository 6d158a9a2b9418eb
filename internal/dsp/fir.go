package dsp

import (
	"fmt"
	"math"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// FIR is a finite-impulse-response filter with real taps, matching the
// filter structures synthesized on the tinySDR FPGA (the LoRa demodulator
// uses a 14-tap low-pass instance).
type FIR struct {
	taps []float64
}

// NewLowpass designs an n-tap windowed-sinc low-pass filter with the given
// normalized cutoff (cycles/sample, 0 < cutoff < 0.5) using a Hamming window,
// normalized to unity DC gain.
func NewLowpass(n int, cutoff float64) *FIR {
	if n < 1 {
		panic("dsp: lowpass needs at least one tap")
	}
	if cutoff <= 0 || cutoff >= 0.5 {
		panic(fmt.Sprintf("dsp: lowpass cutoff %v out of range (0, 0.5)", cutoff))
	}
	taps := make([]float64, n)
	mid := float64(n-1) / 2
	var sum float64
	for i := range taps {
		x := float64(i) - mid
		var v float64
		if x == 0 {
			v = 2 * cutoff
		} else {
			v = math.Sin(2*math.Pi*cutoff*x) / (math.Pi * x)
		}
		v *= 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1)) // Hamming
		taps[i] = v
		sum += v
	}
	for i := range taps {
		taps[i] /= sum
	}
	return &FIR{taps: taps}
}

// FilterInto convolves x with the taps into dst and returns dst
// (zero-padded edges, linear-phase alignment to the group delay).
// len(dst) must equal len(x); dst must not alias x. It performs no
// allocation — the hot-path entry the demodulator scratch arenas use.
func (f *FIR) FilterInto(dst, x iq.Samples) iq.Samples {
	n := len(x)
	if len(dst) != n {
		panic(fmt.Sprintf("dsp: FIR dst length mismatch %d != %d", len(dst), n))
	}
	delay := (len(f.taps) - 1) / 2
	for i := 0; i < n; i++ {
		// Real taps: accumulate the I and Q rails separately so each tap
		// costs two real multiplies instead of a full complex product.
		// The per-rail sums round exactly as the complex accumulator did.
		var re, im float64
		// Clamp the tap range so the inner loop carries no bounds test.
		kLo := i + delay - (n - 1)
		if kLo < 0 {
			kLo = 0
		}
		kHi := i + delay
		if kHi > len(f.taps)-1 {
			kHi = len(f.taps) - 1
		}
		for k := kLo; k <= kHi; k++ {
			v := x[i+delay-k]
			t := f.taps[k]
			re += real(v) * t
			im += imag(v) * t
		}
		dst[i] = complex(re, im)
	}
	return dst
}

// Filter convolves x with the taps and returns a buffer of the same length
// (zero-padded edges, linear-phase alignment to the group delay).
func (f *FIR) Filter(x iq.Samples) iq.Samples {
	return f.FilterInto(make(iq.Samples, len(x)), x)
}

// FilterRealInto convolves a real-valued sequence with the taps into dst,
// with the same alignment semantics as FilterInto.
func (f *FIR) FilterRealInto(dst, x []float64) []float64 {
	n := len(x)
	if len(dst) != n {
		panic(fmt.Sprintf("dsp: FIR dst length mismatch %d != %d", len(dst), n))
	}
	delay := (len(f.taps) - 1) / 2
	for i := 0; i < n; i++ {
		var acc float64
		kLo := i + delay - (n - 1)
		if kLo < 0 {
			kLo = 0
		}
		kHi := i + delay
		if kHi > len(f.taps)-1 {
			kHi = len(f.taps) - 1
		}
		for k := kLo; k <= kHi; k++ {
			acc += x[i+delay-k] * f.taps[k]
		}
		dst[i] = acc
	}
	return dst
}

// FilterReal convolves a real-valued sequence with the taps, with the same
// alignment semantics as Filter.
func (f *FIR) FilterReal(x []float64) []float64 {
	return f.FilterRealInto(make([]float64, len(x)), x)
}

// NewGaussian designs the Gaussian pulse-shaping filter used by the BLE GFSK
// modulator: bandwidth-time product bt, sps samples per symbol, truncated to
// span symbols, normalized to unity DC gain.
func NewGaussian(bt float64, sps, span int) *FIR {
	if bt <= 0 || sps < 1 || span < 1 {
		panic("dsp: invalid Gaussian filter parameters")
	}
	n := span*sps + 1
	taps := make([]float64, n)
	mid := float64(n-1) / 2
	// Standard Gaussian pulse: h(t) = sqrt(2*pi/ln2)*B*exp(-2*pi^2*B^2*t^2/ln2)
	// with B = bt / Tsym and t in symbol units.
	alpha := 2 * math.Pi * math.Pi * bt * bt / math.Ln2
	var sum float64
	for i := range taps {
		t := (float64(i) - mid) / float64(sps) // in symbols
		taps[i] = math.Exp(-alpha * t * t)
		sum += taps[i]
	}
	for i := range taps {
		taps[i] /= sum
	}
	return &FIR{taps: taps}
}
