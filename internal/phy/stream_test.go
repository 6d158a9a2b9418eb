package phy

import (
	"io"
	"math/rand"
	"testing"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// randomSamples returns n Gaussian IQ samples drawn from seed.
func randomSamples(seed int64, n int) iq.Samples {
	rng := rand.New(rand.NewSource(seed))
	x := make(iq.Samples, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// drain reads the stream to EOF with the given chunk size, checking the
// full-chunks-until-the-last contract along the way.
func drain(t *testing.T, s Stream, chunk int) iq.Samples {
	t.Helper()
	var got iq.Samples
	buf := make(iq.Samples, chunk)
	sawShort := false
	for {
		n, err := s.ReadChunk(buf)
		if err == io.EOF {
			if n != 0 {
				t.Fatalf("EOF with %d samples", n)
			}
			return got
		}
		if err != nil {
			t.Fatalf("ReadChunk: %v", err)
		}
		if sawShort {
			t.Fatalf("read after a short chunk")
		}
		if n < chunk {
			sawShort = true
		}
		got = append(got, buf[:n]...)
	}
}

func TestStreamSamples(t *testing.T) {
	x := randomSamples(3, 100)
	s := StreamSamples("synth", 1e6, x)
	got := drain(t, s, 33)
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
	if n, err := s.ReadChunk(make(iq.Samples, 4)); n != 0 || err != io.EOF {
		t.Fatalf("post-EOF read: %d, %v", n, err)
	}
	if s.Name() != "synth" || s.SampleRate() != 1e6 {
		t.Fatalf("identity: %s @ %g", s.Name(), s.SampleRate())
	}
}
