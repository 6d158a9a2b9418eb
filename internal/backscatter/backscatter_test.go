package backscatter

import (
	"math/rand"
	"testing"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/iq"
)

func randomBits(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	bits := make([]int, n)
	for i := range bits {
		bits[i] = rng.Intn(2)
	}
	// Guarantee both symbols appear so the threshold is well defined.
	bits[0], bits[1] = 0, 1
	return bits
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SampleRate: 0, SubcarrierHz: 1e5, BitRate: 1e4},
		{SampleRate: 4e6, SubcarrierHz: 3e6, BitRate: 1e4},  // beyond Nyquist
		{SampleRate: 4e6, SubcarrierHz: 2e4, BitRate: 1e4},  // subcarrier too slow
		{SampleRate: 4e6, SubcarrierHz: 1e5, BitRate: 3000}, // non-integral spb
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestTagValidation(t *testing.T) {
	tag := &Tag{Config: DefaultConfig(), Reflection: 0}
	if _, err := tag.Backscatter([]int{1}); err == nil {
		t.Error("zero reflection accepted")
	}
	tag.Reflection = 2
	if _, err := tag.Backscatter([]int{1}); err == nil {
		t.Error("gain > 1 accepted")
	}
}

// link assembles reader RX: exciter leak + tag reflection + noise.
func link(t *testing.T, bits []int, reflection, leakAmp float64, floorDBm float64, seed int64) iq.Samples {
	t.Helper()
	cfg := DefaultConfig()
	tag := &Tag{Config: cfg, Reflection: reflection}
	reflected, err := tag.Backscatter(bits)
	if err != nil {
		t.Fatal(err)
	}
	// The exciter's self-interference is a constant tone at DC.
	rx := make(iq.Samples, len(reflected))
	for i := range rx {
		rx[i] = complex(leakAmp, 0) + reflected[i]
	}
	if floorDBm > -300 {
		rx.Add(channel.NewAWGN(seed, floorDBm).Noise(len(rx)))
	}
	return rx
}

func TestLoopbackCleanChannel(t *testing.T) {
	bits := randomBits(64, 1)
	rx := link(t, bits, 0.01, 1.0, -301, 0) // 40 dB carrier leak over tag, no noise
	r, err := NewReader(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Demodulate(rx, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("bit %d wrong (clean channel)", i)
		}
	}
}

func TestLoopbackStrongSelfInterference(t *testing.T) {
	// 60 dB carrier-to-tag ratio: the subcarrier offset must still
	// separate the tag from the exciter leak.
	bits := randomBits(48, 2)
	rx := link(t, bits, 0.001, 1.0, -301, 0)
	r, _ := NewReader(DefaultConfig())
	got, err := r.Demodulate(rx, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range bits {
		if got[i] != bits[i] {
			errs++
		}
	}
	if errs != 0 {
		t.Errorf("%d/%d errors at 60 dB self-interference", errs, len(bits))
	}
}

func TestLoopbackWithNoise(t *testing.T) {
	// Tag signal ~-40 dBm equivalent, noise floor -90: comfortable SNR.
	bits := randomBits(64, 3)
	rx := link(t, bits, 0.01, 1.0, -90, 7)
	r, _ := NewReader(DefaultConfig())
	got, err := r.Demodulate(rx, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range bits {
		if got[i] != bits[i] {
			errs++
		}
	}
	if errs > 1 {
		t.Errorf("%d/%d errors at high SNR", errs, len(bits))
	}
}

func TestWeakTagFails(t *testing.T) {
	// A tag buried in noise must produce errors — the link has limits.
	bits := randomBits(64, 4)
	rx := link(t, bits, 1e-5, 1.0, -60, 9)
	r, _ := NewReader(DefaultConfig())
	got, err := r.Demodulate(rx, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range bits {
		if got[i] != bits[i] {
			errs++
		}
	}
	if errs < 8 {
		t.Errorf("only %d errors with tag 50 dB under the noise; model too optimistic", errs)
	}
}

func TestDemodulateShortBuffer(t *testing.T) {
	r, _ := NewReader(DefaultConfig())
	if _, err := r.Demodulate(make(iq.Samples, 100), 64); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestNewReaderRejectsBadConfig(t *testing.T) {
	if _, err := NewReader(Config{}); err == nil {
		t.Error("zero config accepted")
	}
}
