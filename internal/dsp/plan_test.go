package dsp

import (
	"math"
	"testing"

	"github.com/uwsdr/tinysdr/internal/iq"
)

func TestFFTPlanMatchesFFT(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 256, 1024} {
		plan := NewFFTPlan(n)
		if plan.n != n {
			t.Fatalf("plan size = %d, want %d", plan.n, n)
		}
		x := randomSamples(n, int64(n))
		want := naiveDFT(x)
		got := x.Clone()
		plan.Transform(got)
		for i := range want {
			if d := got[i] - want[i]; math.Hypot(real(d), imag(d)) > 1e-6*float64(n) {
				t.Fatalf("n=%d bin %d: got %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTPlanInverseRoundTrip(t *testing.T) {
	plan := NewFFTPlan(256)
	x := randomSamples(256, 9)
	y := x.Clone()
	plan.Transform(y)
	plan.Inverse(y)
	for i := range x {
		if d := y[i] - x[i]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("round trip bin %d: got %v, want %v", i, y[i], x[i])
		}
	}
}

func TestFFTPlanRejectsWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Transform on mismatched length must panic")
		}
	}()
	NewFFTPlan(64).Transform(make(iq.Samples, 32))
}

func TestNewFFTPlanRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFFTPlan(12) must panic")
		}
	}()
	NewFFTPlan(12)
}

func TestPlanFFTShared(t *testing.T) {
	if PlanFFT(128) != PlanFFT(128) {
		t.Error("PlanFFT must return the cached plan")
	}
}

// TestFFTPlanTransformZeroAllocs pins the hot-path contract: a planned
// transform performs zero heap allocations.
func TestFFTPlanTransformZeroAllocs(t *testing.T) {
	plan := NewFFTPlan(256)
	x := randomSamples(256, 3)
	if n := testing.AllocsPerRun(100, func() { plan.Transform(x) }); n != 0 {
		t.Errorf("FFTPlan.Transform allocates %.0f times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { plan.Inverse(x) }); n != 0 {
		t.Errorf("FFTPlan.Inverse allocates %.0f times per op, want 0", n)
	}
}

// TestDechirpTransformIntoMatchesUnfused pins the fused kernel's contract:
// dechirping while scattering into bit-reversed order and then running the
// butterflies is bit-identical to the unfused DechirpInto → Transform
// pipeline, for every OSR the demodulator uses and for both chirp slopes.
func TestDechirpTransformIntoMatchesUnfused(t *testing.T) {
	for _, osr := range []int{1, 2, 4} {
		g := ChirpGen{SF: 8, OSR: osr}
		plan := NewFFTPlan(g.SymbolLen())
		x := randomSamples(g.SymbolLen(), int64(17*osr))
		for _, ref := range []iq.Samples{g.Upchirp(0), g.Downchirp()} {
			want := Dechirp(x, ref)
			plan.Transform(want)
			got := plan.DechirpTransformInto(make(iq.Samples, len(x)), x, ref)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("OSR %d bin %d: fused %v != unfused %v", osr, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDechirpTransformIntoRejectsWrongLengths(t *testing.T) {
	plan := NewFFTPlan(64)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched dst length must panic")
		}
	}()
	plan.DechirpTransformInto(make(iq.Samples, 32), make(iq.Samples, 64), make(iq.Samples, 64))
}

// TestFoldPeakIntoMatchesUnfused pins the other fused kernel: one
// FoldPeakInto pass must reproduce MagnitudesInto → FoldBinsInto → the
// sequential peak/total scan bit for bit, at OSR 1 (no folding) and above.
func TestFoldPeakIntoMatchesUnfused(t *testing.T) {
	for _, osr := range []int{1, 2, 4} {
		g := ChirpGen{SF: 8, OSR: osr}
		x := randomSamples(g.SymbolLen(), int64(5*osr))
		mags := Magnitudes(x)
		wantFold := FoldBins(mags, g.NumChips())
		var wantSum, wantPeak float64
		wantBin := 0
		for k, p := range wantFold {
			wantSum += p
			if p > wantPeak {
				wantPeak, wantBin = p, k
			}
		}
		gotFold := make([]float64, g.NumChips())
		bin, peak, sum := FoldPeakInto(gotFold, x)
		if bin != wantBin || peak != wantPeak || sum != wantSum {
			t.Fatalf("OSR %d: fused (%d, %v, %v) != unfused (%d, %v, %v)",
				osr, bin, peak, sum, wantBin, wantPeak, wantSum)
		}
		for i := range wantFold {
			if gotFold[i] != wantFold[i] {
				t.Fatalf("OSR %d folded bin %d: %v != %v", osr, i, gotFold[i], wantFold[i])
			}
		}
	}
}

// TestFusedKernelsZeroAllocs pins the fused kernels to the same
// zero-allocation contract as the unfused Into variants.
func TestFusedKernelsZeroAllocs(t *testing.T) {
	g := ChirpGen{SF: 8, OSR: 2}
	plan := NewFFTPlan(g.SymbolLen())
	x := randomSamples(g.SymbolLen(), 5)
	ref := g.Upchirp(0)
	de := make(iq.Samples, len(x))
	folded := make([]float64, g.NumChips())
	if n := testing.AllocsPerRun(50, func() { plan.DechirpTransformInto(de, x, ref) }); n != 0 {
		t.Errorf("DechirpTransformInto allocates %.0f times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { FoldPeakInto(folded, de) }); n != 0 {
		t.Errorf("FoldPeakInto allocates %.0f times per op, want 0", n)
	}
}

func TestIntoVariantsMatchAllocating(t *testing.T) {
	g := ChirpGen{SF: 8, OSR: 2}
	x := randomSamples(g.SymbolLen(), 5)
	ref := g.Upchirp(0)

	want := Dechirp(x, ref)
	got := make(iq.Samples, len(x))
	DechirpInto(got, x, ref)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DechirpInto bin %d: %v != %v", i, got[i], want[i])
		}
	}

	wantM := Magnitudes(x)
	gotM := MagnitudesInto(make([]float64, len(x)), x)
	for i := range wantM {
		if gotM[i] != wantM[i] {
			t.Fatalf("MagnitudesInto bin %d: %v != %v", i, gotM[i], wantM[i])
		}
	}

	wantF := FoldBins(wantM, g.NumChips())
	gotF := FoldBinsInto(make([]float64, g.NumChips()), wantM)
	for i := range wantF {
		if gotF[i] != wantF[i] {
			t.Fatalf("FoldBinsInto bin %d: %v != %v", i, gotF[i], wantF[i])
		}
	}
}

func TestDSPIntoZeroAllocs(t *testing.T) {
	g := ChirpGen{SF: 8, OSR: 2}
	x := randomSamples(g.SymbolLen(), 5)
	ref := g.Upchirp(0)
	de := make(iq.Samples, len(x))
	mags := make([]float64, len(x))
	folded := make([]float64, g.NumChips())
	fir := NewLowpass(14, 0.2)
	filt := make(iq.Samples, len(x))

	cases := map[string]func(){
		"DechirpInto":    func() { DechirpInto(de, x, ref) },
		"MagnitudesInto": func() { MagnitudesInto(mags, x) },
		"FoldBinsInto":   func() { FoldBinsInto(folded, mags) },
		"FIR.FilterInto": func() { fir.FilterInto(filt, x) },
	}
	for name, fn := range cases {
		if n := testing.AllocsPerRun(50, fn); n != 0 {
			t.Errorf("%s allocates %.0f times per op, want 0", name, n)
		}
	}
}

func TestFilterIntoMatchesFilter(t *testing.T) {
	fir := NewLowpass(14, 0.2)
	x := randomSamples(300, 11)
	want := fir.Filter(x)
	got := fir.FilterInto(make(iq.Samples, len(x)), x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FilterInto sample %d: %v != %v", i, got[i], want[i])
		}
	}

	xr := make([]float64, 300)
	for i := range xr {
		xr[i] = real(x[i])
	}
	wantR := fir.FilterReal(xr)
	gotR := fir.FilterRealInto(make([]float64, len(xr)), xr)
	for i := range wantR {
		if gotR[i] != wantR[i] {
			t.Fatalf("FilterRealInto sample %d: %v != %v", i, gotR[i], wantR[i])
		}
	}
}

// TestDiscriminatorMatchesUnfusedAndChunks pins the fused FIR+FM kernel:
// the one-pass discriminator must reproduce FilterInto followed by phase
// differentiation bit for bit, and incremental Extend calls must be exact
// prefixes of the full pass regardless of chunk boundaries.
func TestDiscriminatorMatchesUnfusedAndChunks(t *testing.T) {
	fir := NewLowpass(17, 0.14)
	x := randomSamples(500, 23)

	// Unfused reference: filter, then differentiate phase.
	filt := fir.Filter(x)
	want := make([]float64, len(x))
	for i := 1; i < len(filt); i++ {
		p := filt[i-1]
		v := filt[i] * complex(real(p), -imag(p))
		want[i] = math.Atan2(imag(v), real(v))
	}

	d := NewDiscriminator(fir)
	got := d.DiscriminateInto(make([]float64, len(x)), x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fused sample %d: %v != %v", i, got[i], want[i])
		}
	}

	// Chunked: ragged Extend boundaries must not change a single value.
	chunked := make([]float64, len(x))
	d.Reset()
	for _, upto := range []int{1, 7, 64, 65, 300, 499, 500, 600} {
		d.ExtendInto(chunked, x, upto)
	}
	if d.pos != len(x) {
		t.Fatalf("pos = %d after full extension, want %d", d.pos, len(x))
	}
	for i := range want {
		if chunked[i] != want[i] {
			t.Fatalf("chunked sample %d: %v != %v", i, chunked[i], want[i])
		}
	}

	if n := testing.AllocsPerRun(20, func() {
		d.Reset()
		d.ExtendInto(chunked, x, len(x))
	}); n != 0 {
		t.Errorf("Discriminator allocates %.0f times per pass, want 0", n)
	}
}

func BenchmarkFFTPlanTransform(b *testing.B) {
	plan := NewFFTPlan(256)
	x := randomSamples(256, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Transform(x)
	}
}

func BenchmarkFFTGlobalEntry(b *testing.B) {
	x := randomSamples(256, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}
