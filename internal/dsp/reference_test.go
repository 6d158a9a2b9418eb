package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"testing"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// referenceButterflies is the radix-4 DIT butterfly ladder the plans ran
// from one shared 3n/4 table of e^{-2πik/n}, read at strided indices. x
// must already be in bit-reversed order. Every FFTPlan entry point must
// reproduce it exactly; zeros may differ only in sign.
func referenceButterflies(x iq.Samples) {
	n := len(x)
	if n == 1 {
		return
	}
	w := make([]complex128, 3*n/4)
	for i := range w {
		ang := -2 * math.Pi * float64(i) / float64(n)
		w[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	size := 1
	if bits.TrailingZeros(uint(n))&1 == 1 {
		for i := 0; i < n; i += 2 {
			u, t := x[i], x[i+1]
			x[i], x[i+1] = u+t, u-t
		}
		size = 2
	}
	for ; size < n; size *= 4 {
		step := n / (size * 4)
		for start := 0; start < n; start += size * 4 {
			j1, j2, j3 := 0, 0, 0
			for k := 0; k < size; k++ {
				i0 := start + k
				i1 := i0 + size
				i2 := i1 + size
				i3 := i2 + size
				a := x[i0]
				t2 := w[j2] * x[i1]
				t1 := w[j1] * x[i2]
				t3 := w[j3] * x[i3]
				ap, am := a+t2, a-t2
				bp, bm := t1+t3, t1-t3
				jb := complex(imag(bm), -real(bm))
				x[i0] = ap + bp
				x[i1] = am + jb
				x[i2] = ap - bp
				x[i3] = am - jb
				j1 += step
				j2 += 2 * step
				j3 += 3 * step
			}
		}
	}
}

// referenceBitReverse returns x permuted into base-2 bit-reversed order.
func referenceBitReverse(x iq.Samples) iq.Samples {
	n := len(x)
	shift := 64 - bits.TrailingZeros(uint(n))
	out := make(iq.Samples, n)
	for i, v := range x {
		out[bits.Reverse64(uint64(i))>>shift] = v
	}
	return out
}

// referenceTransform is the forward FFT through the reference ladder.
func referenceTransform(x iq.Samples) iq.Samples {
	y := referenceBitReverse(x)
	referenceButterflies(y)
	return y
}

// referenceInverse is FFTPlan.Inverse through the reference ladder:
// conjugate, transform, conjugate and scale by 1/N.
func referenceInverse(x iq.Samples) iq.Samples {
	c := make(iq.Samples, len(x))
	for i, v := range x {
		c[i] = complex(real(v), -imag(v))
	}
	y := referenceTransform(c)
	inv := 1 / float64(len(x))
	for i, v := range y {
		y[i] = complex(real(v)*inv, -imag(v)*inv)
	}
	return y
}

// referenceInputs is the input set the receive-path differentials run on:
// Gaussian samples, Gaussian samples with exact zeros in whole samples and
// in single components, a pure tone, and all zeros.
func referenceInputs(n int) []namedSamples {
	zeros := randomSamples(n, int64(3*n+1))
	for i := range zeros {
		switch i % 4 {
		case 0:
			zeros[i] = 0
		case 1:
			zeros[i] = complex(real(zeros[i]), 0)
		case 2:
			zeros[i] = complex(0, imag(zeros[i]))
		}
	}
	tone := make(iq.Samples, n)
	for i := range tone {
		tone[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(n/3)*float64(i)/float64(n)))
	}
	return []namedSamples{
		{"gaussian", randomSamples(n, int64(n))},
		{"zeros", zeros},
		{"tone", tone},
		{"allzero", make(iq.Samples, n)},
	}
}

type namedSamples struct {
	name string
	x    iq.Samples
}

// sameBins fails the test unless got equals want component-wise under ==
// (so +0 and -0 compare equal) and every squared magnitude is
// bit-identical — what the FFT's consumers read.
func sameBins(t *testing.T, what string, got, want iq.Samples) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s bin %d: %v != reference %v", what, i, got[i], want[i])
		}
		g := real(got[i])*real(got[i]) + imag(got[i])*imag(got[i])
		w := real(want[i])*real(want[i]) + imag(want[i])*imag(want[i])
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s bin %d: |X|² %x != reference %x", what, i, math.Float64bits(g), math.Float64bits(w))
		}
	}
}

// TestButterfliesMatchReference pins the receive path's FFT byte for byte:
// Transform, Inverse, DechirpTransformInto and Welch's windowed segment at
// every power of two from 1 to 4096 must reproduce the reference ladder.
func TestButterfliesMatchReference(t *testing.T) {
	for logN := 0; logN <= 12; logN++ {
		n := 1 << logN
		plan := NewFFTPlan(n)
		ref := randomSamples(n, int64(n)+7)
		for _, in := range referenceInputs(n) {
			x := in.x
			what := func(op string) string { return fmt.Sprintf("%s %s n=%d", op, in.name, n) }

			got := x.Clone()
			plan.Transform(got)
			sameBins(t, what("Transform"), got, referenceTransform(x))

			got = x.Clone()
			plan.Inverse(got)
			sameBins(t, what("Inverse"), got, referenceInverse(x))

			de := make(iq.Samples, n)
			for i := range de {
				de[i] = x[i] * complex(real(ref[i]), -imag(ref[i]))
			}
			got = plan.DechirpTransformInto(make(iq.Samples, n), x, ref)
			sameBins(t, what("DechirpTransformInto"), got, referenceTransform(de))

			if n == 1 {
				continue // TestWelchOnePointPlanTerminates covers one-point Welch
			}
			wp := NewWelchPlan(n)
			dst := make([]float64, n)
			for _, m := range []int{n, n / 2} { // one full segment, one zero-padded
				seg := make(iq.Samples, n)
				for i := 0; i < m; i++ {
					seg[i] = x[i] * complex(wp.win[i], 0)
				}
				wp.EstimateInto(dst, x[:m], 1e6)
				sameBins(t, what(fmt.Sprintf("Welch segment m=%d", m)), wp.seg, referenceTransform(seg))
			}
		}
	}
}
