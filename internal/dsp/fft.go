// Package dsp implements the signal-processing blocks that run on the
// tinySDR FPGA: an FFT (the Lattice IP core in the paper), FIR filters, a
// phase-accumulator NCO with sin/cos lookup tables, chirp generation, and
// spectral estimation for the evaluation harness.
//
// All blocks operate on iq.Samples and are deterministic.
//
// The transform entry points come in two flavors: the package-level
// functions (FFT, Magnitudes, Dechirp, FoldBins) allocate their outputs and
// are convenient for tests and one-shot use, while FFTPlan and the *Into
// variants write into caller-provided scratch and perform zero heap
// allocations in steady state — the contract the demodulator hot paths rely
// on (see PERFORMANCE.md).
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// FFTPlan holds the precomputed twiddle factors and bit-reversal
// permutation for one transform size — the FFT datapath the FPGA's core
// instantiates per configuration. The butterfly ladder is radix-4 (three
// complex multiplies per 4-point group instead of radix-2's four, ~25%
// fewer) seeded by one multiply-free radix-2 stage when log2(n) is odd; it
// runs directly on the standard base-2 bit-reversed ordering, so the
// permutation table is shared with the fused dechirp entry point. A plan is
// immutable after construction and safe for concurrent use; Transform
// itself mutates only its argument and performs no locking and no
// allocation.
type FFTPlan struct {
	n int
	// w holds the twiddles stage by stage, in ladder order. The radix-4
	// stage of span size gets one contiguous run of 3·size values: w^k,
	// then w^{2k}, then w^{3k} for k < size, where w = e^{-2πi·step/n} and
	// step = n/(4·size). A span-1 first stage multiplies only by w^0 and
	// stores nothing.
	w   []complex128
	rev []int32 // bit-reversal permutation, rev[i] < i entries swap
}

// NewFFTPlan returns a plan for size n. n must be a positive power of two;
// NewFFTPlan panics otherwise, mirroring the fixed-size FFT core configured
// on the FPGA.
func NewFFTPlan(n int) *FFTPlan {
	if !IsPowerOfTwo(n) {
		panic(fmt.Sprintf("dsp: FFT size %d is not a power of two", n))
	}
	p := &FFTPlan{n: n}
	// Every twiddle is e^{-2πij/n} for its exponent j = m·k·step (m = 1, 2,
	// 3), computed from j alone: an exponent gets the same bits in every
	// stage, as in the reference ladder the transform must match exactly.
	twiddle := func(j int) complex128 {
		ang := -2 * math.Pi * float64(j) / float64(n)
		return complex(math.Cos(ang), math.Sin(ang))
	}
	for size := firstTwiddleSpan(n); size < n; size *= 4 {
		step := n / (size * 4)
		for m := 1; m <= 3; m++ {
			for k := 0; k < size; k++ {
				p.w = append(p.w, twiddle(m*k*step))
			}
		}
	}
	p.rev = make([]int32, n)
	for i, j := 0, 0; i < n; i++ {
		p.rev[i] = int32(j)
		mask := n >> 1
		for j&mask != 0 {
			j &^= mask
			mask >>= 1
		}
		j |= mask
	}
	return p
}

// firstTwiddleSpan is the span of the ladder's first radix-4 stage with
// twiddles: 2 after the radix-2 seed stage when log2(n) is odd, else 4
// after the multiply-free span-1 stage.
func firstTwiddleSpan(n int) int {
	if bits.TrailingZeros(uint(n))&1 == 1 {
		return 2
	}
	return 4
}

// butterflies runs the full DIT butterfly ladder over x, which must already
// be in bit-reversed order: one multiply-free radix-2 seed stage when
// log2(n) is odd, then radix-4 stages. With base-2 bit reversal the four
// size-M sub-DFTs of a 4M block sit in decimation order A, C, B, D (phases
// 0, 2, 1, 3 of the input interleave), which is what the twiddle assignment
// below encodes. A span-1 first stage runs without multiplies: its only
// twiddle is w^0 = 1−0i, and skipping the multiply changes at most the sign
// of an exact zero.
func (p *FFTPlan) butterflies(x iq.Samples) {
	n := p.n
	if n == 1 {
		return
	}
	size := firstTwiddleSpan(n)
	if size == 2 {
		for i := 0; i < n; i += 2 {
			u, t := x[i], x[i+1]
			x[i], x[i+1] = u+t, u-t
		}
	} else {
		for i := 0; i < n; i += 4 {
			q := x[i : i+4 : i+4]
			a, t2, t1, t3 := q[0], q[1], q[2], q[3]
			ap, am := a+t2, a-t2
			bp, bm := t1+t3, t1-t3
			jb := complex(imag(bm), -real(bm))
			q[0], q[1], q[2], q[3] = ap+bp, am+jb, ap-bp, am-jb
		}
	}
	w := p.w
	for ; size < n; size *= 4 {
		w1, w2, w3 := w[:size], w[size:2*size], w[2*size:3*size]
		w = w[3*size:]
		for start := 0; start < n; start += size * 4 {
			xa := x[start : start+size]
			xc := x[start+size : start+2*size][:len(xa)]
			xb := x[start+2*size : start+3*size][:len(xa)]
			xd := x[start+3*size : start+4*size][:len(xa)]
			w1, w2, w3 := w1[:len(xa)], w2[:len(xa)], w3[:len(xa)]
			for k, a := range xa {
				t2 := w2[k] * xc[k] // w^{2k} · C (phase-2 sub-DFT)
				t1 := w1[k] * xb[k] // w^k · B (phase-1 sub-DFT)
				t3 := w3[k] * xd[k] // w^{3k} · D (phase-3 sub-DFT)
				ap, am := a+t2, a-t2
				bp, bm := t1+t3, t1-t3
				jb := complex(imag(bm), -real(bm)) // -j·(t1-t3), multiply-free
				xa[k] = ap + bp
				xc[k] = am + jb
				xb[k] = ap - bp
				xd[k] = am - jb
			}
		}
	}
}

// Transform computes the in-place decimation-in-time FFT of x.
// len(x) must equal the plan size. It performs no allocation.
func (p *FFTPlan) Transform(x iq.Samples) {
	n := p.n
	if len(x) != n {
		panic(fmt.Sprintf("dsp: FFT input length %d != plan size %d", len(x), n))
	}
	for i, r := range p.rev {
		if int(r) > i {
			x[i], x[r] = x[r], x[i]
		}
	}
	p.butterflies(x)
}

// DechirpTransformInto multiplies x by the conjugate of ref (the Complex
// Multiplier block of the demodulator) while scattering the products into
// dst in bit-reversed order, then runs the butterfly ladder on dst and
// returns it. It fuses DechirpInto and Transform's separate permutation
// pass into one walk over the window. All three slices must have the plan's
// length; dst must not alias x or ref. It performs no allocation.
func (p *FFTPlan) DechirpTransformInto(dst, x, ref iq.Samples) iq.Samples {
	n := p.n
	if len(x) != n || len(ref) != n {
		panic(fmt.Sprintf("dsp: dechirp-transform length %d/%d != plan size %d", len(x), len(ref), n))
	}
	if len(dst) != n {
		panic(fmt.Sprintf("dsp: dechirp-transform dst length %d != plan size %d", len(dst), n))
	}
	for i, r := range p.rev {
		v := ref[i]
		dst[r] = x[i] * complex(real(v), -imag(v))
	}
	p.butterflies(dst)
	return dst
}

// Inverse computes the in-place inverse FFT of x with 1/N normalization.
// The entry conjugation is fused into the bit-reversal pass and the exit
// conjugation into the 1/N scale, so the inverse costs one pass more than
// the forward transform rather than three. It performs no allocation.
func (p *FFTPlan) Inverse(x iq.Samples) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: IFFT input length %d != plan size %d", len(x), p.n))
	}
	for i, r := range p.rev {
		switch {
		case int(r) > i:
			xi, xr := x[i], x[r]
			x[i] = complex(real(xr), -imag(xr))
			x[r] = complex(real(xi), -imag(xi))
		case int(r) == i:
			x[i] = complex(real(x[i]), -imag(x[i]))
		}
	}
	p.butterflies(x)
	inv := 1 / float64(p.n)
	for i := range x {
		x[i] = complex(real(x[i])*inv, -imag(x[i])*inv)
	}
}

// planCache holds shared plans for the package-level FFT/IFFT entry points.
// sync.Map gives a lock-free fast path once a size has been planned.
var planCache sync.Map // int -> *FFTPlan

// PlanFFT returns a shared immutable plan for size n, creating it on first
// use. Hot paths that own their buffer sizes should hold their own plan
// from NewFFTPlan instead; this cache exists for the convenience entry
// points below.
func PlanFFT(n int) *FFTPlan {
	if p, ok := planCache.Load(n); ok {
		return p.(*FFTPlan)
	}
	p, _ := planCache.LoadOrStore(n, NewFFTPlan(n))
	return p.(*FFTPlan)
}

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// FFT computes the in-place decimation-in-time FFT of x through the shared
// plan for its size (radix-4 stages, see FFTPlan).
// len(x) must be a positive power of two; FFT panics otherwise, mirroring
// the fixed-size FFT core configured on the FPGA.
func FFT(x iq.Samples) { PlanFFT(len(x)).Transform(x) }

// IFFT computes the in-place inverse FFT of x with 1/N normalization.
func IFFT(x iq.Samples) { PlanFFT(len(x)).Inverse(x) }

// PeakBin returns the index and squared magnitude of the largest FFT bin.
// It is the Symbol Detector block of the LoRa demodulator (Fig. 6b).
func PeakBin(x iq.Samples) (bin int, power float64) {
	for i, v := range x {
		p := real(v)*real(v) + imag(v)*imag(v)
		if p > power {
			power, bin = p, i
		}
	}
	return bin, power
}

// MagnitudesInto writes the squared magnitude of each element of x into
// dst and returns dst. len(dst) must equal len(x). It performs no
// allocation.
func MagnitudesInto(dst []float64, x iq.Samples) []float64 {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("dsp: magnitudes length mismatch %d != %d", len(dst), len(x)))
	}
	for i, v := range x {
		dst[i] = real(v)*real(v) + imag(v)*imag(v)
	}
	return dst
}

// Magnitudes returns the squared magnitude of each element.
func Magnitudes(x iq.Samples) []float64 {
	return MagnitudesInto(make([]float64, len(x)), x)
}
