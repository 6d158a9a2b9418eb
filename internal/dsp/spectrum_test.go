package dsp

import (
	"math"
	"testing"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// TestSFDRGuardWrapsCircularly pins the edge-wrap fix: a spur adjacent to a
// peak across the array boundary sits inside the circular guard band and
// must not count as the worst spur (the old linear guard clipped at the
// edge and reported it).
func TestSFDRGuardWrapsCircularly(t *testing.T) {
	s := Spectrum{SampleRate: 1, PowerDBm: make([]float64, 16)}
	for i := range s.PowerDBm {
		s.PowerDBm[i] = -100
	}
	s.PowerDBm[0] = 0   // peak at the first bin (-Fs/2)
	s.PowerDBm[15] = -3 // skirt bin, 1 away across the wrap
	s.PowerDBm[14] = -6 // skirt bin, 2 away across the wrap
	s.PowerDBm[8] = -60 // the genuine spur
	if got := s.SFDR(2); math.Abs(got-60) > 1e-12 {
		t.Errorf("SFDR(2) = %.1f dB, want 60 (wrapped skirt bins excluded)", got)
	}
	// With no guard the skirt bin is legitimately the worst spur.
	if got := s.SFDR(0); math.Abs(got-3) > 1e-12 {
		t.Errorf("SFDR(0) = %.1f dB, want 3", got)
	}
}

func TestSFDRGuardCoversEverything(t *testing.T) {
	s := Spectrum{SampleRate: 1, PowerDBm: []float64{0, -10, -20, -30}}
	if got := s.SFDR(2); !math.IsInf(got, 1) {
		t.Errorf("SFDR with guard covering all bins = %v, want +Inf", got)
	}
}

// TestWelchShortInputCalibration pins the populated-fraction fix: a
// bin-aligned tone occupying half a segment must still read its true power.
// The old full-window coherent gain under-read this capture by ~6 dB.
func TestWelchShortInputCalibration(t *testing.T) {
	x := NewNCO(32.0 / 256).Generate(128)
	iq.Samples(x).ScaleToDBm(-40)
	spec := Welch(x, 256, 1e6)
	_, p := spec.Peak()
	if math.Abs(p-(-40)) > 0.5 {
		t.Errorf("half-segment tone reads %.2f dBm, want -40 +- 0.5", p)
	}
}

// TestWelchNoWindowMassReadsMinusInf pins the zero-mass calibration: a
// capture whose populated Hann window has no mass (empty, or one sample,
// since Hann's first tap is 0) carries no calibrated power, so every bin
// reads -Inf where the division by that zero mass used to read NaN. A
// two-sample silent capture has mass and reads -Inf through the ordinary
// path.
func TestWelchNoWindowMassReadsMinusInf(t *testing.T) {
	for _, c := range []struct {
		name string
		x    iq.Samples
	}{{"empty", nil}, {"one-sample tone", iq.Samples{1}}, {"two silent samples", iq.Samples{0, 0}}} {
		s := Welch(c.x, 8, 1e6)
		for i, p := range s.PowerDBm {
			if !math.IsInf(p, -1) {
				t.Fatalf("%s: bin %d reads %v, want -Inf", c.name, i, p)
			}
		}
	}
}

// TestWelchOnePointPlanTerminates pins the one-point segment walk: n/2
// is 0 there, and the walk never advanced (tinysdr-sense sweep -fft 1
// hung). Each sample is now its own segment, so the estimate is the
// capture's mean power.
func TestWelchOnePointPlanTerminates(t *testing.T) {
	x := NewNCO(0.1).Generate(16)
	iq.Samples(x).ScaleToDBm(-30)
	got := Welch(x, 1, 1e6).PowerDBm[0]
	if want := iq.MilliwattsToDBm(iq.Samples(x).Power()); math.Abs(got-want) > 1e-9 {
		t.Errorf("one-point Welch reads %v dBm, want the mean power %v dBm", got, want)
	}
}

func TestWelchPlanMatchesWelch(t *testing.T) {
	x := NewNCO(0.2).Generate(4096)
	iq.Samples(x).ScaleToDBm(-30)
	want := Welch(x, 512, 4e6)
	w := NewWelchPlan(512)
	if len(w.win) != 512 {
		t.Fatalf("plan size %d", len(w.win))
	}
	dst := make([]float64, 512)
	for round := 0; round < 2; round++ { // scratch reuse must not leak state
		got := w.EstimateInto(dst, x, 4e6)
		for i := range want.PowerDBm {
			if got.PowerDBm[i] != want.PowerDBm[i] {
				t.Fatalf("round %d bin %d: plan %.9f, one-shot %.9f",
					round, i, got.PowerDBm[i], want.PowerDBm[i])
			}
		}
	}
}

func TestWelchPlanZeroAllocs(t *testing.T) {
	w := NewWelchPlan(256)
	dst := make([]float64, 256)
	x := NewNCO(0.1).Generate(2048)
	if allocs := testing.AllocsPerRun(100, func() {
		w.EstimateInto(dst, x, 1e6)
	}); allocs != 0 {
		t.Errorf("EstimateInto allocates %.0f objects/op, want 0", allocs)
	}
}

func TestWelchPlanPanicsOnDstMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWelchPlan(256).EstimateInto(make([]float64, 128), make(iq.Samples, 512), 1e6)
}

func TestNewWelchPlanPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWelchPlan(100)
}

// BenchmarkWelchPlan pins the spectrum-sensing hot path: repeated estimates
// through one plan, no allocation after construction.
func BenchmarkWelchPlan(b *testing.B) {
	x := NewNCO(0.2).Generate(1 << 16)
	w := NewWelchPlan(2048)
	dst := make([]float64, 2048)
	b.SetBytes(int64(len(x) * 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.EstimateInto(dst, x, 4e6)
	}
}
