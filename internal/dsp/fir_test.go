package dsp

import (
	"math"
	"math/cmplx"
	"testing"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// responseDB is the filter's power gain in dB at the given normalized
// frequency (cycles/sample), the DTFT of its taps.
func responseDB(f *FIR, freq float64) float64 {
	var re, im float64
	for k, tap := range f.taps {
		ang := -2 * math.Pi * freq * float64(k)
		re += tap * math.Cos(ang)
		im += tap * math.Sin(ang)
	}
	return iq.DB(re*re + im*im)
}

func TestLowpassResponse(t *testing.T) {
	f := NewLowpass(63, 0.1)
	if g := responseDB(f, 0); math.Abs(g) > 0.01 {
		t.Errorf("DC gain = %v dB, want 0", g)
	}
	if g := responseDB(f, 0.05); g < -1 {
		t.Errorf("passband gain at 0.05 = %v dB, want > -1 dB", g)
	}
	if g := responseDB(f, 0.2); g > -40 {
		t.Errorf("stopband gain at 0.2 = %v dB, want < -40 dB", g)
	}
	if g := responseDB(f, 0.45); g > -40 {
		t.Errorf("stopband gain at 0.45 = %v dB, want < -40 dB", g)
	}
}

func TestLowpassPanicsOnBadParams(t *testing.T) {
	for _, f := range []func(){
		func() { NewLowpass(0, 0.1) },
		func() { NewLowpass(15, 0) },
		func() { NewLowpass(15, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFilterPassesInBandTone(t *testing.T) {
	f := NewLowpass(63, 0.1)
	n := 1024
	x := make(iq.Samples, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*0.03*float64(i)))
	}
	y := f.Filter(x)
	// Ignore edge transients.
	mid := y[100 : n-100]
	if p := iq.Samples(mid).PowerDBm(); math.Abs(p) > 0.5 {
		t.Errorf("in-band tone power after filter = %v dBm, want ~0", p)
	}
}

func TestFilterRejectsOutOfBandTone(t *testing.T) {
	f := NewLowpass(63, 0.1)
	n := 1024
	x := make(iq.Samples, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*0.35*float64(i)))
	}
	y := f.Filter(x)
	mid := y[100 : n-100]
	if p := iq.Samples(mid).PowerDBm(); p > -40 {
		t.Errorf("out-of-band tone power after filter = %v dBm, want < -40", p)
	}
}

func TestFilterLength(t *testing.T) {
	f := NewLowpass(15, 0.2)
	x := make(iq.Samples, 37)
	if got := len(f.Filter(x)); got != 37 {
		t.Errorf("Filter output length = %d, want 37", got)
	}
}

func TestFilterRealMatchesComplex(t *testing.T) {
	f := NewLowpass(21, 0.15)
	xr := make([]float64, 128)
	xc := make(iq.Samples, 128)
	for i := range xr {
		xr[i] = math.Sin(0.2 * float64(i))
		xc[i] = complex(xr[i], 0)
	}
	yr := f.FilterReal(xr)
	yc := f.Filter(xc)
	for i := range yr {
		if math.Abs(yr[i]-real(yc[i])) > 1e-12 {
			t.Fatalf("sample %d: real path %v != complex path %v", i, yr[i], real(yc[i]))
		}
	}
}

func TestGaussianTaps(t *testing.T) {
	g := NewGaussian(0.5, 8, 4)
	taps := g.taps
	if len(taps) != 33 {
		t.Fatalf("tap count = %d, want 33", len(taps))
	}
	var sum float64
	for _, v := range taps {
		sum += v
		if v < 0 {
			t.Fatal("Gaussian taps must be non-negative")
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("tap sum = %v, want 1", sum)
	}
	// Symmetry and peak at center.
	for i := 0; i < len(taps)/2; i++ {
		if math.Abs(taps[i]-taps[len(taps)-1-i]) > 1e-12 {
			t.Fatalf("taps not symmetric at %d", i)
		}
	}
	mid := len(taps) / 2
	for i := 1; i <= mid; i++ {
		if taps[mid-i] > taps[mid-i+1] {
			t.Fatalf("taps not monotone toward center at %d", i)
		}
	}
}

func TestGaussianPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGaussian(0, 8, 4)
}
