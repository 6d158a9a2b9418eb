package dsp

import (
	"math"
	"testing"

	"github.com/uwsdr/tinysdr/internal/iq"
)

func TestChirpSymbolLength(t *testing.T) {
	for sf := 6; sf <= 12; sf++ {
		for _, osr := range []int{1, 2, 4} {
			g := ChirpGen{SF: sf, OSR: osr}
			want := (1 << sf) * osr
			if got := len(g.Upchirp(0)); got != want {
				t.Errorf("SF%d OSR%d: upchirp len %d, want %d", sf, osr, got, want)
			}
			if got := len(g.Downchirp()); got != want {
				t.Errorf("SF%d OSR%d: downchirp len %d, want %d", sf, osr, got, want)
			}
		}
	}
}

func TestChirpConstantEnvelope(t *testing.T) {
	g := ChirpGen{SF: 8, OSR: 1}
	s := g.Upchirp(37)
	// CSS is constant-envelope: every sample magnitude ~1 (13-bit LUT).
	for i, x := range s {
		mag := math.Hypot(real(x), imag(x))
		if math.Abs(mag-1) > 0.01 {
			t.Fatalf("sample %d magnitude %v deviates from constant envelope", i, mag)
		}
	}
}

func TestChirpValidate(t *testing.T) {
	if err := (ChirpGen{SF: 8, OSR: 2}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, g := range []ChirpGen{{SF: 5, OSR: 1}, {SF: 13, OSR: 1}, {SF: 8, OSR: 3}, {SF: 8, OSR: 0}} {
		if err := g.Validate(); err == nil {
			t.Errorf("config %+v accepted, want error", g)
		}
	}
}

// demodShift recovers the cyclic shift of an upchirp via dechirp + FFT,
// exactly as the tinySDR demodulator does.
func demodShift(g ChirpGen, sym iq.Samples) int {
	de := Dechirp(sym, g.Upchirp(0))
	FFT(de)
	folded := FoldBins(Magnitudes(de), g.NumChips())
	best, bestP := 0, 0.0
	for k, p := range folded {
		if p > bestP {
			best, bestP = k, p
		}
	}
	return best
}

func TestDechirpRecoversAllShiftsOSR1(t *testing.T) {
	g := ChirpGen{SF: 7, OSR: 1}
	for k := 0; k < g.NumChips(); k++ {
		if got := demodShift(g, g.Upchirp(k)); got != k {
			t.Fatalf("shift %d demodulated as %d", k, got)
		}
	}
}

func TestDechirpRecoversShiftsOSR2(t *testing.T) {
	g := ChirpGen{SF: 8, OSR: 2}
	for _, k := range []int{0, 1, 17, 100, 128, 200, 255} {
		if got := demodShift(g, g.Upchirp(k)); got != k {
			t.Fatalf("OSR2 shift %d demodulated as %d", k, got)
		}
	}
}

func TestDechirpPeakDominance(t *testing.T) {
	// After dechirping, the peak bin must hold nearly all symbol energy.
	g := ChirpGen{SF: 9, OSR: 1}
	de := Dechirp(g.Upchirp(211), g.Upchirp(0))
	FFT(de)
	mags := Magnitudes(de)
	peak, peakP := PeakBin(de)
	if peak != 211 {
		t.Fatalf("peak at %d, want 211", peak)
	}
	var total float64
	for _, m := range mags {
		total += m
	}
	if peakP/total < 0.98 {
		t.Errorf("peak holds %.3f of energy, want > 0.98", peakP/total)
	}
}

func TestUpDownChirpDiscrimination(t *testing.T) {
	// The sync detector compares FFT peaks after multiplying by both an
	// upchirp and a downchirp reference; the matching slope must win big.
	g := ChirpGen{SF: 8, OSR: 1}
	up := g.Upchirp(0)
	down := g.Downchirp()

	deMatch := Dechirp(up, g.Upchirp(0))
	FFT(deMatch)
	_, matchP := PeakBin(deMatch)

	deCross := Dechirp(down, g.Upchirp(0))
	FFT(deCross)
	_, crossP := PeakBin(deCross)

	if iq.DB(matchP/crossP) < 15 {
		t.Errorf("up/down discrimination margin %.1f dB, want > 15 dB", iq.DB(matchP/crossP))
	}
}

func TestDifferentSlopeChirpsQuasiOrthogonal(t *testing.T) {
	// Dechirping an SF8 chirp with an SF9 reference (different slope) must
	// spread its energy: the peak should be far below the matched case.
	// This is the orthogonality property §6 of the paper builds on.
	g8 := ChirpGen{SF: 8, OSR: 2} // BW b over 256 chips
	g9 := ChirpGen{SF: 9, OSR: 2} // same sample rate, different slope

	matched := Dechirp(g9.Upchirp(0), g9.Upchirp(0))
	FFT(matched)
	_, matchP := PeakBin(matched)

	x9 := g9.Upchirp(0)
	cross := Dechirp(x9[:g8.SymbolLen()], g8.Upchirp(0))
	FFT(cross)
	_, crossP := PeakBin(cross)

	// Normalize for FFT length difference (energy scales with N^2 in peak).
	ratio := iq.DB(matchP / (crossP * 4))
	if ratio < 15 {
		t.Errorf("cross-slope suppression %.1f dB, want > 15 dB", ratio)
	}
}

func TestDechirpLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dechirp(make(iq.Samples, 8), make(iq.Samples, 16))
}

func TestFoldBinsIdentityAtOSR1(t *testing.T) {
	in := []float64{1, 2, 3, 4}
	out := FoldBins(in, 4)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("FoldBins changed values at OSR=1: %v", out)
		}
	}
}

func TestFoldBinsMergesAliases(t *testing.T) {
	// S=8, N=4: bin k merges with bin (8-4+k) mod 8 = k+4.
	in := []float64{1, 2, 3, 4, 10, 20, 30, 40}
	out := FoldBins(in, 4)
	want := []float64{11, 22, 33, 44}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("FoldBins = %v, want %v", out, want)
		}
	}
}

func BenchmarkChirpUpSF8(b *testing.B) {
	g := ChirpGen{SF: 8, OSR: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Upchirp(i & 255)
	}
}

func BenchmarkDechirpFFTSF8(b *testing.B) {
	g := ChirpGen{SF: 8, OSR: 1}
	sym := g.Upchirp(99)
	ref := g.Upchirp(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		de := Dechirp(sym, ref)
		FFT(de)
	}
}
