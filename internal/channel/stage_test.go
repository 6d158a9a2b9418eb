package channel

import (
	"math"
	"math/cmplx"
	"testing"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// tone returns a unit-amplitude complex exponential of n samples at the
// given cycles-per-sample frequency.
func tone(n int, cyclesPerSample float64) iq.Samples {
	s := make(iq.Samples, n)
	for i := range s {
		ang := 2 * math.Pi * cyclesPerSample * float64(i)
		s[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	return s
}

func TestGainSetsPower(t *testing.T) {
	g := NewGain(-87)
	out := g.ApplyInto(make(iq.Samples, 4096), tone(4096, 0.1))
	if got := out.PowerDBm(); math.Abs(got-(-87)) > 0.01 {
		t.Errorf("gain output = %v dBm, want -87", got)
	}
}

func TestNoiseStageMatchesFloorAndSeed(t *testing.T) {
	n := NewNoise(-100)
	n.Reset(3)
	zero := make(iq.Samples, 200000)
	out := n.ApplyInto(make(iq.Samples, len(zero)), zero)
	if got := out.PowerDBm(); math.Abs(got-(-100)) > 0.1 {
		t.Errorf("noise power = %v dBm, want -100 ± 0.1", got)
	}
	// Reset must reproduce the identical record.
	n.Reset(3)
	again := n.ApplyInto(make(iq.Samples, len(zero)), zero)
	for i := range out {
		if out[i] != again[i] {
			t.Fatal("same seed must reproduce identical noise")
		}
	}
	n.Reset(4)
	other := n.ApplyInto(make(iq.Samples, len(zero)), zero)
	if other[0] == out[0] && other[1] == out[1] {
		t.Error("different seeds should decorrelate")
	}
}

func TestFlatFadingPreservesAveragePower(t *testing.T) {
	f := NewFlatFading(0)
	sig := tone(256, 0.1)
	// Average |g|² over many block draws must approach 1 (unit-mean
	// Rayleigh profile).
	var acc float64
	const draws = 20000
	for i := 0; i < draws; i++ {
		f.Reset(int64(i))
		g := f.gains[0]
		acc += real(g)*real(g) + imag(g)*imag(g)
	}
	if mean := acc / draws; math.Abs(mean-1) > 0.03 {
		t.Errorf("mean fading power = %v, want 1 ± 0.03", mean)
	}
	// And a single application scales the waveform by exactly |g|.
	f.Reset(7)
	out := f.ApplyInto(make(iq.Samples, len(sig)), sig)
	g := f.gains[0]
	want := sig.Power() * (real(g)*real(g) + imag(g)*imag(g))
	if got := out.Power(); math.Abs(got-want) > 1e-12 {
		t.Errorf("faded power = %v, want %v", got, want)
	}
}

func TestRicianKFactorConcentratesGain(t *testing.T) {
	// With K → large the gain magnitude must concentrate near 1. The
	// scatter rail at K=100 has σ ≈ 0.07, so the extremes of 2000 Gaussian
	// draws land around 1 ± 4σ; the bounds leave tail headroom (a Rayleigh
	// channel, the failure this test guards against, spans ≈ 0..2.5 over
	// the same draws and blows far through them).
	f := NewFlatFading(100)
	var minMag, maxMag = math.Inf(1), math.Inf(-1)
	for i := 0; i < 1000; i++ {
		f.Reset(int64(i))
		m := cmplx.Abs(f.gains[0])
		minMag = math.Min(minMag, m)
		maxMag = math.Max(maxMag, m)
	}
	if minMag < 0.6 || maxMag > 1.4 {
		t.Errorf("K=100 gain magnitude spans [%v, %v], want tight around 1", minMag, maxMag)
	}
}

func TestFadingDelayLine(t *testing.T) {
	// A two-tap channel applied to an impulse must place the tap gains at
	// the tap delays.
	f := NewFading([]Tap{{0, 0}, {3, -3}}, 0)
	f.Reset(11)
	sig := make(iq.Samples, 8)
	sig[0] = 1
	out := f.ApplyInto(make(iq.Samples, 8), sig)
	g := f.gains
	if out[0] != g[0] || out[3] != g[1] {
		t.Errorf("impulse response %v does not match gains %v", out, g)
	}
	for _, i := range []int{1, 2, 4, 5, 6, 7} {
		if out[i] != 0 {
			t.Errorf("echo at sample %d", i)
		}
	}
}

func TestExponentialTapsShape(t *testing.T) {
	taps := ExponentialTaps(4, 2, 9)
	if len(taps) != 4 {
		t.Fatalf("got %d taps", len(taps))
	}
	if taps[0].PowerDB != 0 || taps[3].PowerDB != -9 {
		t.Errorf("decay endpoints = %v, %v", taps[0].PowerDB, taps[3].PowerDB)
	}
	if taps[3].DelaySamples != 6 {
		t.Errorf("last delay = %d, want 6", taps[3].DelaySamples)
	}
}

func TestCFOShiftsTone(t *testing.T) {
	const fs = 125e3
	const shift = 2000.0
	c := NewCFO(shift, 0, 0, fs)
	c.Reset(1)
	sig := tone(4096, 1000/fs) // 1 kHz tone
	out := c.ApplyInto(make(iq.Samples, len(sig)), sig)
	// Measure the dominant frequency by average phase increment.
	var acc float64
	for i := 1; i < len(out); i++ {
		acc += cmplx.Phase(out[i] * cmplx.Conj(out[i-1]))
	}
	gotHz := acc / float64(len(out)-1) / (2 * math.Pi) * fs
	if math.Abs(gotHz-3000) > 20 {
		t.Errorf("shifted tone at %v Hz, want 3000", gotHz)
	}
}

func TestCFOJitterDeterministicPerSeed(t *testing.T) {
	c := NewCFO(0, 100, 0, 125e3)
	c.Reset(5)
	a := c.offset
	c.Reset(5)
	if c.offset != a {
		t.Error("same seed must draw the same offset")
	}
	c.Reset(6)
	if c.offset == a {
		t.Error("different seeds should draw different offsets")
	}
}

func TestCFODriftStretchesTimebase(t *testing.T) {
	// A large positive drift reads the source faster: the last output
	// sample must come from beyond its own index.
	const ppm = 1000.0 // 0.1%: 4 samples over 4096
	c := NewCFO(0, 0, ppm, 125e3)
	c.Reset(1)
	sig := make(iq.Samples, 4096)
	for i := range sig {
		sig[i] = complex(float64(i), 0) // ramp makes resampling visible
	}
	out := c.ApplyInto(make(iq.Samples, len(sig)), sig)
	// CFO offset 0 with a random start phase: magnitude is preserved, so
	// compare |out| to the resampled ramp value.
	i := 3000
	want := float64(i) * (1 + ppm*1e-6)
	if got := cmplx.Abs(out[i]); math.Abs(got-want) > 0.01 {
		t.Errorf("sample %d reads %v, want resampled %v", i, got, want)
	}
}

func TestDopplerSign(t *testing.T) {
	if d := DopplerHz(30, 915e6); d >= 0 || math.Abs(d+91.6) > 1 {
		t.Errorf("doppler at 30 m/s receding = %v Hz, want ≈-91.6", d)
	}
}

func TestMobilityRampsPowerAcrossRecord(t *testing.T) {
	m := NewMobility(LogDistance{FreqHz: 915e6, Exponent: 2.9}, 14, 6, 0, 500, 4000, 125e3)
	m.Reset(1)
	sig := tone(65536, 0.05) // ~0.5 s at 125 kHz: 500 m → 2.5 km (extreme, for test visibility)
	out := m.ApplyInto(make(iq.Samples, len(sig)), sig)
	head := out[:1024].PowerDBm()
	tail := out[len(out)-4096:].PowerDBm()
	if head <= tail {
		t.Errorf("receding trajectory must lose power: head %v dBm, tail %v dBm", head, tail)
	}
	// Head must sit near the static link budget at the start distance
	// (the first 1024 samples span ~33 m of travel, so allow that drift).
	want := m.Model.RSSIdBm(14, 6, 0, 500, 0)
	if math.Abs(head-want) > 1 {
		t.Errorf("head power %v dBm, want ≈%v", head, want)
	}
}

func TestMobilityShadowingPerReset(t *testing.T) {
	model := LogDistance{FreqHz: 915e6, Exponent: 2.9, ShadowSigmaDB: 4}
	m := NewMobility(model, 14, 6, 0, 500, 0, 125e3)
	m.Reset(1)
	a := m.RSSIAt(0)
	m.Reset(1)
	if m.RSSIAt(0) != a {
		t.Error("same seed must draw the same shadowing")
	}
	m.Reset(2)
	if m.RSSIAt(0) == a {
		t.Error("different seeds should draw different shadowing")
	}
}

func TestInterfererAddsAtDrawnOffset(t *testing.T) {
	wave := tone(64, 0.25)
	it := NewInterferer("lora", wave, -90, 100)
	it.Reset(9)
	off := it.offset
	if off < 0 || off > 100 {
		t.Fatalf("offset %d outside [0,100]", off)
	}
	sig := make(iq.Samples, 256)
	out := it.ApplyInto(make(iq.Samples, len(sig)), sig)
	// Power concentrated in [off, off+64) at -90 dBm.
	seg := out[off : off+64]
	if got := seg.PowerDBm(); math.Abs(got-(-90)) > 0.01 {
		t.Errorf("interference power = %v dBm, want -90", got)
	}
	for i := 0; i < off; i++ {
		if out[i] != 0 {
			t.Fatalf("leakage before offset at %d", i)
		}
	}
}

func TestInterfererFreqOffsetMovesEnergy(t *testing.T) {
	const fs = 125e3
	wave := tone(4096, 0) // DC tone
	it := NewInterferer("lora", wave, -90, 0)
	it.FreqOffsetHz = 10e3
	it.SampleRate = fs
	it.Reset(1)
	sig := make(iq.Samples, 4096)
	out := it.ApplyInto(make(iq.Samples, len(sig)), sig)
	var acc float64
	for i := 1; i < len(out); i++ {
		acc += cmplx.Phase(out[i] * cmplx.Conj(out[i-1]))
	}
	gotHz := acc / float64(len(out)-1) / (2 * math.Pi) * fs
	if math.Abs(gotHz-10e3) > 50 {
		t.Errorf("shifted interferer at %v Hz, want 10000", gotHz)
	}
}

func TestInterfererRecacheOnFieldChange(t *testing.T) {
	wave := tone(256, 0.1)
	it := NewInterferer("lora", wave, -90, 0)
	sig := make(iq.Samples, 256)
	it.Reset(1)
	before := it.ApplyInto(make(iq.Samples, 256), sig).PowerDBm()
	// Mutating an exported field must invalidate the cached record on
	// the next Reset.
	it.PowerDBm = -80
	it.Reset(1)
	after := it.ApplyInto(make(iq.Samples, 256), sig).PowerDBm()
	if math.Abs(before-(-90)) > 0.01 || math.Abs(after-(-80)) > 0.01 {
		t.Errorf("powers %v / %v, want -90 then -80", before, after)
	}
}

func TestInterfererFreqOffsetWithoutRatePanics(t *testing.T) {
	it := NewInterferer("lora", tone(64, 0.1), -90, 0)
	it.FreqOffsetHz = 10e3 // SampleRate deliberately left unset
	defer func() {
		if recover() == nil {
			t.Fatal("FreqOffsetHz without SampleRate must panic, not silently run co-channel")
		}
	}()
	it.Reset(1)
}

func TestStageLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	NewGain(-50).ApplyInto(make(iq.Samples, 3), make(iq.Samples, 4))
}

func TestDropoutAttenuatesWindow(t *testing.T) {
	d := NewDropout(1, 40) // always drops
	d.Reset(3)
	if !d.active {
		t.Fatal("prob 1 dropout inactive")
	}
	sig := tone(4096, 0.1)
	out := d.ApplyInto(make(iq.Samples, len(sig)), sig)
	want := math.Pow(10, -40.0/20)
	deep, clean := 0, 0
	for i := range out {
		ratio := cmplx.Abs(out[i])
		switch {
		case math.Abs(ratio-want) < 1e-9:
			deep++
		case math.Abs(ratio-1) < 1e-9:
			clean++
		default:
			t.Fatalf("sample %d gain %v is neither unity nor -40 dB", i, ratio)
		}
	}
	// Window extent is drawn in [10%, 60%] of the record.
	if deep < len(out)/10 || deep > len(out)*6/10 {
		t.Errorf("dropout covers %d of %d samples, want 10%%..60%%", deep, len(out))
	}
	if deep+clean != len(out) {
		t.Error("window accounting does not cover the record")
	}
}

func TestDropoutDeterministicAndLengthFree(t *testing.T) {
	// The window is drawn as record fractions at Reset: the same seed must
	// place it proportionally in records of different length.
	d := NewDropout(1, 0)
	if d.DepthDB != DefaultDropoutDepthDB {
		t.Fatalf("default depth = %v", d.DepthDB)
	}
	cover := func(n int) (lo, hi int) {
		d.Reset(7)
		sig := make(iq.Samples, n)
		for i := range sig {
			sig[i] = 1
		}
		out := d.ApplyInto(make(iq.Samples, n), sig)
		lo, hi = -1, -1
		for i := range out {
			if cmplx.Abs(out[i]) < 0.5 {
				if lo < 0 {
					lo = i
				}
				hi = i + 1
			}
		}
		return lo, hi
	}
	lo1, hi1 := cover(1000)
	lo4, hi4 := cover(4000)
	if lo4/4 != lo1 && lo4/4 != lo1-1 && lo4/4 != lo1+1 {
		t.Errorf("window start %d at n=1000 vs %d at n=4000 not proportional", lo1, lo4)
	}
	if (hi4-lo4)/4-(hi1-lo1) > 1 || (hi1-lo1)-(hi4-lo4)/4 > 1 {
		t.Errorf("window length %d vs %d/4 not proportional", hi1-lo1, hi4-lo4)
	}
	// And the same seed reproduces the identical window.
	a0, a1 := cover(1000)
	if a0 != lo1 || a1 != hi1 {
		t.Error("same seed drew a different window")
	}
}

func TestDropoutActivationTracksProbability(t *testing.T) {
	d := NewDropout(0.3, 0)
	hits := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		d.Reset(int64(i))
		if d.active {
			hits++
		}
	}
	if rate := float64(hits) / trials; math.Abs(rate-0.3) > 0.03 {
		t.Errorf("activation rate %.3f, want 0.3±0.03", rate)
	}
}

func TestDropoutInactivePassThrough(t *testing.T) {
	d := NewDropout(0, 0) // never drops
	d.Reset(1)
	sig := tone(256, 0.1)
	out := d.ApplyInto(make(iq.Samples, len(sig)), sig)
	for i := range out {
		if out[i] != sig[i] {
			t.Fatal("inactive dropout altered the signal")
		}
	}
	// Aliased application must be safe.
	buf := append(iq.Samples(nil), sig...)
	d.ApplyInto(buf, buf)
	for i := range buf {
		if buf[i] != sig[i] {
			t.Fatal("aliased inactive dropout altered the signal")
		}
	}
}
