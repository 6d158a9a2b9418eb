package dsp

import (
	"math"
	"testing"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// FuzzFFTPlanMatchesDFT runs the FFT differentials at random sizes and
// inputs: n = 1<<(logN%13), samples built from int8 (I, Q) pairs of data,
// cycled to length n (all zeros when data holds no pair). Transform must
// match the naive DFT within 1e-9·n·max|x| up to n = 256, match the
// reference ladder exactly at every n, and Inverse must round-trip.
func FuzzFFTPlanMatchesDFT(f *testing.F) {
	for _, logN := range []uint8{0, 1, 2, 3, 8, 12} {
		f.Add(logN, []byte{1, 0, 0x80, 0x7f, 0xff, 3, 0, 0})
	}
	f.Fuzz(func(t *testing.T, logN uint8, data []byte) {
		n := 1 << (logN % 13)
		x := make(iq.Samples, n)
		if pairs := len(data) / 2; pairs > 0 {
			for i := range x {
				j := 2 * (i % pairs)
				x[i] = complex(float64(int8(data[j])), float64(int8(data[j+1])))
			}
		}
		var peak float64
		for _, v := range x {
			peak = math.Max(peak, math.Hypot(real(v), imag(v)))
		}

		plan := NewFFTPlan(n)
		got := x.Clone()
		plan.Transform(got)
		want := referenceTransform(x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d bin %d: Transform %v != reference %v", n, i, got[i], want[i])
			}
		}
		if n <= 256 {
			dft := naiveDFT(x)
			tol := 1e-9 * float64(n) * peak
			for i := range dft {
				if d := got[i] - dft[i]; math.Hypot(real(d), imag(d)) > tol {
					t.Fatalf("n=%d bin %d: Transform %v, DFT %v", n, i, got[i], dft[i])
				}
			}
		}

		plan.Inverse(got)
		tol := 1e-12 * float64(n) * peak
		for i := range x {
			if d := got[i] - x[i]; math.Hypot(real(d), imag(d)) > tol {
				t.Fatalf("n=%d sample %d: round trip %v != %v", n, i, got[i], x[i])
			}
		}
	})
}
