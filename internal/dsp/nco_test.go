package dsp

import (
	"math"
	"testing"

	"github.com/uwsdr/tinysdr/internal/iq"
)

func TestNCOFrequencyAccuracy(t *testing.T) {
	for _, freq := range []float64{0.05, 0.25, -0.125, -0.37} {
		n := NewNCO(freq)
		x := n.Generate(4096)
		FFT(x)
		peak, _ := PeakBin(x)
		// Convert bin to signed normalized frequency.
		got := float64(peak) / 4096
		if got >= 0.5 {
			got -= 1
		}
		if math.Abs(got-freq) > 1.0/4096 {
			t.Errorf("freq %v: peak at %v", freq, got)
		}
	}
}

func TestNCOConstantEnvelope(t *testing.T) {
	n := NewNCO(0.1)
	for i, x := range n.Generate(1000) {
		if math.Abs(math.Hypot(real(x), imag(x))-1) > 0.01 {
			t.Fatalf("sample %d envelope deviates", i)
		}
	}
}

func TestNCOSpurLevel(t *testing.T) {
	// The 10-bit LUT phase truncation yields spurs; they must stay below
	// -55 dBc, consistent with the clean single-tone spectrum in Fig. 8.
	n := NewNCO(0.1000976562) // deliberately not bin-aligned in hardware terms
	x := n.Generate(16384)
	spec := Welch(x, 4096, 1)
	if sfdr := spec.SFDR(3); sfdr < 55 {
		t.Errorf("SFDR = %.1f dB, want > 55 dB", sfdr)
	}
}

func TestNCOPhaseContinuityAcrossRetune(t *testing.T) {
	// Retuning must not jump phase: consecutive samples around the retune
	// stay on the unit circle with bounded phase step.
	n := NewNCO(0.01)
	a := n.Generate(10)
	n.SetFrequency(0.02)
	b := n.Generate(10)
	last := a[len(a)-1]
	first := b[0]
	dot := real(last)*real(first) + imag(last)*imag(first)
	// cos of phase step; for f=0.01..0.02 the step is small, dot must be > 0.9.
	if dot < 0.9 {
		t.Errorf("phase discontinuity at retune: dot=%v", dot)
	}
}

func TestNCOMix(t *testing.T) {
	// Mixing a tone at f1 with an NCO at f2 moves it to f1+f2.
	carrier := NewNCO(0.1).Generate(2048)
	lo := NewNCO(0.15)
	for i := range carrier {
		carrier[i] *= lo.Next()
	}
	FFT(carrier)
	peak, _ := PeakBin(carrier)
	want := int(math.Round(0.25 * 2048))
	if peak != want {
		t.Errorf("mixed tone at bin %d, want %d", peak, want)
	}
}

func TestNCODCIsConstant(t *testing.T) {
	n := NewNCO(0)
	x := n.Generate(16)
	for i, v := range x {
		if v != x[0] {
			t.Fatalf("DC NCO sample %d changed: %v vs %v", i, v, x[0])
		}
	}
}

func TestWindows(t *testing.T) {
	h := Hann(64)
	if h[0] > 1e-12 || h[63] > 1e-12 {
		t.Error("Hann endpoints should be ~0")
	}
	max := 0.0
	for _, v := range h {
		if v > max {
			max = v
		}
	}
	if math.Abs(max-1) > 1e-3 {
		t.Errorf("Hann peak = %v, want ~1", max)
	}
	if len(Hann(1)) != 1 || Hann(1)[0] != 1 {
		t.Error("Hann(1) should be [1]")
	}
}

func TestWelchCalibration(t *testing.T) {
	// A -40 dBm tone must read -40 dBm at its peak bin.
	n := NewNCO(0.2)
	x := n.Generate(32768)
	iq.Samples(x).ScaleToDBm(-40)
	spec := Welch(x, 1024, 4e6)
	_, p := spec.Peak()
	if math.Abs(p-(-40)) > 0.5 {
		t.Errorf("tone reads %.2f dBm, want -40 +- 0.5", p)
	}
}

func TestWelchFreqAxis(t *testing.T) {
	spec := Spectrum{SampleRate: 4e6, PowerDBm: make([]float64, 1024)}
	if f := spec.Freq(512); f != 0 {
		t.Errorf("center bin freq = %v, want 0", f)
	}
	if f := spec.Freq(0); f != -2e6 {
		t.Errorf("first bin freq = %v, want -2e6", f)
	}
}

func TestWelchShortInput(t *testing.T) {
	// Shorter than one segment must still produce a finite spectrum.
	x := NewNCO(0.1).Generate(100)
	spec := Welch(x, 256, 1e6)
	if len(spec.PowerDBm) != 256 {
		t.Fatalf("spectrum length %d", len(spec.PowerDBm))
	}
}

func TestWelchPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Welch(make(iq.Samples, 100), 100, 1e6)
}
