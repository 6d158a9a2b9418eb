package channel

import (
	"math"
	"testing"

	"github.com/uwsdr/tinysdr/internal/iq"
)

func TestNoiseFloorKnownValues(t *testing.T) {
	// 125 kHz, NF 7 -> -116.03 dBm.
	got := NoiseFloorDBm(125e3, 7)
	if math.Abs(got-(-116.03)) > 0.05 {
		t.Errorf("floor = %v, want -116.03", got)
	}
	// 1 Hz, NF 0 -> -174.
	if got := NoiseFloorDBm(1, 0); math.Abs(got-(-174)) > 1e-9 {
		t.Errorf("floor = %v, want -174", got)
	}
}

func TestNoisePowerCalibration(t *testing.T) {
	c := NewAWGN(1, -100)
	n := c.Noise(200000)
	if got := n.PowerDBm(); math.Abs(got-(-100)) > 0.1 {
		t.Errorf("noise power = %v dBm, want -100 ± 0.1", got)
	}
}

func TestNoiseIsComplexCircular(t *testing.T) {
	c := NewAWGN(2, -90)
	n := c.Noise(100000)
	var rePow, imPow float64
	for _, x := range n {
		rePow += real(x) * real(x)
		imPow += imag(x) * imag(x)
	}
	ratio := rePow / imPow
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("I/Q power ratio = %v, want ~1", ratio)
	}
}

func TestNoiseDeterministicBySeed(t *testing.T) {
	a := NewAWGN(7, -90).Noise(64)
	b := NewAWGN(7, -90).Noise(64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical noise")
		}
	}
	cSamples := NewAWGN(8, -90).Noise(64)
	same := true
	for i := range a {
		if a[i] != cSamples[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical noise")
	}
}

func TestApplySetsRSSIAndSNR(t *testing.T) {
	c := NewAWGN(3, -116)
	sig := make(iq.Samples, 100000)
	for i := range sig {
		ang := 2 * math.Pi * float64(i) / 32
		sig[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	rx := c.ApplyInto(make(iq.Samples, len(sig)), sig, -110)
	// Total power should be signal + noise ≈ -109 dBm.
	want := iq.MilliwattsToDBm(iq.DBmToMilliwatts(-110) + iq.DBmToMilliwatts(-116))
	if got := rx.PowerDBm(); math.Abs(got-want) > 0.2 {
		t.Errorf("rx power = %v, want %v", got, want)
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	c := NewAWGN(4, -100)
	sig := iq.Samples{1, 1, 1, 1}
	c.ApplyInto(make(iq.Samples, len(sig)), sig, -50)
	for _, x := range sig {
		if x != 1 {
			t.Fatal("ApplyInto mutated its input")
		}
	}
}

func TestApplyMultiSuperposition(t *testing.T) {
	c := NewAWGN(5, -150) // negligible noise
	s1 := make(iq.Samples, 1000)
	s2 := make(iq.Samples, 1000)
	for i := range s1 {
		s1[i], s2[i] = 1, 1
	}
	rx := c.ApplyMulti(2000, []iq.Samples{s1, s2}, []float64{-100, -100}, []int{0, 1000})
	// Each half carries one signal at -100 dBm.
	if got := rx[:1000].PowerDBm(); math.Abs(got-(-100)) > 0.3 {
		t.Errorf("first half = %v dBm", got)
	}
	if got := rx[1000:].PowerDBm(); math.Abs(got-(-100)) > 0.3 {
		t.Errorf("second half = %v dBm", got)
	}
}

func TestApplyMultiValidation(t *testing.T) {
	c := NewAWGN(6, -100)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched args must panic")
		}
	}()
	c.ApplyMulti(10, []iq.Samples{{1}}, []float64{}, []int{0})
}

func TestPathLossMonotonic(t *testing.T) {
	m := LogDistance{FreqHz: 915e6, Exponent: 2.9}
	prev := -1.0
	for _, d := range []float64{1, 10, 100, 1000} {
		loss := m.PathLossDB(d, 0)
		if loss <= prev {
			t.Fatalf("loss not monotonic at %v m", d)
		}
		prev = loss
	}
}

func TestPathLossReference(t *testing.T) {
	m := LogDistance{FreqHz: 915e6, Exponent: 2.0}
	// FSPL at 1 m, 915 MHz ≈ 31.7 dB.
	if got := m.ReferenceLossDB(); math.Abs(got-31.7) > 0.2 {
		t.Errorf("reference loss = %v, want ≈31.7", got)
	}
	// Clamp below 1 m.
	if m.PathLossDB(0.1, 0) != m.PathLossDB(1, 0) {
		t.Error("sub-meter distances must clamp")
	}
}

func TestShadowingDeterministicPerSeed(t *testing.T) {
	m := LogDistance{FreqHz: 915e6, Exponent: 2.9, ShadowSigmaDB: 4}
	a := m.PathLossDB(100, 11)
	b := m.PathLossDB(100, 11)
	if a != b {
		t.Error("same seed must give same shadowing")
	}
	if m.PathLossDB(100, 12) == a {
		t.Error("different seeds should differ")
	}
}

func TestRSSILinkBudget(t *testing.T) {
	m := LogDistance{FreqHz: 915e6, Exponent: 2.9}
	rssi := m.RSSIdBm(14, 2, 0, 500, 0)
	if rssi > -80 || rssi < -130 {
		t.Errorf("RSSI at 500 m = %v dBm, outside plausible LoRa range", rssi)
	}
}

func TestRangeForLoRaKilometerScale(t *testing.T) {
	// The motivating property: a 14 dBm LoRa link with -126 dBm sensitivity
	// reaches kilometer scale.
	m := LogDistance{FreqHz: 915e6, Exponent: 2.9}
	r := m.RangeFor(14, 2, 0, -126)
	if r < 1000 {
		t.Errorf("LoRa range = %v m, want kilometer scale", r)
	}
	// And the inverse is consistent.
	rssi := m.RSSIdBm(14, 2, 0, r, 0)
	if math.Abs(rssi-(-126)) > 0.5 {
		t.Errorf("RSSI at computed range = %v, want -126", rssi)
	}
}
