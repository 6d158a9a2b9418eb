package phy

import (
	"errors"
	"testing"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/iq"
)

// fakeSource serves fixed packets through the Source contract, reusing
// one scratch buffer between calls like the trace source does.
type fakeSource struct {
	rate    float64
	pkts    []iq.Samples
	scratch iq.Samples
	failAt  int // packet index that errors, -1 for none
}

func (f *fakeSource) Name() string        { return "fake" }
func (f *fakeSource) SampleRate() float64 { return f.rate }
func (f *fakeSource) Packets() int        { return len(f.pkts) }

func (f *fakeSource) ReadPacket(k int) (iq.Samples, error) {
	if k == f.failAt {
		return nil, errors.New("disk on fire")
	}
	f.scratch = append(f.scratch[:0], f.pkts[k]...)
	return f.scratch, nil
}

// fakeSink records which packets it saw and can be told to fail.
type fakeSink struct {
	rate float64
	seen []int
	fail bool
}

func (f *fakeSink) Name() string        { return "fake-sink" }
func (f *fakeSink) SampleRate() float64 { return f.rate }

func (f *fakeSink) WritePacket(k int, _ iq.Samples) error {
	if f.fail {
		return errors.New("disk full")
	}
	f.seen = append(f.seen, k)
	return nil
}

func mustNew(t *testing.T, name string) Modem {
	t.Helper()
	m, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestProbeLossesSumToRunFailures pins the prefix property the adaptive
// sweeps rely on: probing packets 0..n-1 one at a time loses exactly the
// packets Run(payload, n) counts as failures.
func TestProbeLossesSumToRunFailures(t *testing.T) {
	tx, rx := mustNew(t, "lora"), mustNew(t, "lora")
	sc := channel.NewScenario(
		channel.NewGain(rx.SensitivityDBm()-1),
		channel.NewNoise(rx.NoiseFloorDBm()),
	)
	link, err := Open(tx, rx, sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	st, err := link.Run(goldenPayload, n)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failures == 0 || st.Failures == n {
		t.Fatalf("%d of %d lost: the link must sit on the PER cliff for the sum to mean anything", st.Failures, n)
	}
	lost := 0
	for k := 0; k < n; k++ {
		bad, err := link.Probe(goldenPayload, k)
		if err != nil {
			t.Fatal(err)
		}
		if bad {
			lost++
		}
	}
	if lost != st.Failures {
		t.Errorf("probes lost %d packets, Run counted %d failures", lost, st.Failures)
	}
}

// TestTapValidatesRateAndSurfacesSinkErrors pins the capture seam: a sink
// at the wrong rate is refused, a failing sink is a device error rather
// than a packet loss, and a nil sink removes the tap.
func TestTapValidatesRateAndSurfacesSinkErrors(t *testing.T) {
	tx, rx := mustNew(t, "ble"), mustNew(t, "ble")
	link, err := Open(tx, rx, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Tap(&fakeSink{rate: rx.SampleRate() / 2}); err == nil {
		t.Error("tap at the wrong sample rate accepted")
	}
	sink := &fakeSink{rate: rx.SampleRate()}
	if err := link.Tap(sink); err != nil {
		t.Fatal(err)
	}
	if st, err := link.Run(goldenPayload, 3); err != nil || st.Failures != 0 {
		t.Fatalf("tapped clean run: %+v, %v", st, err)
	}
	if len(sink.seen) != 3 || sink.seen[0] != 0 || sink.seen[2] != 2 {
		t.Errorf("sink saw packets %v, want [0 1 2]", sink.seen)
	}

	sink.fail = true
	if _, err := link.Probe(goldenPayload, 0); !errors.Is(err, errDevice) {
		t.Errorf("Probe with a failing sink: %v, want a device error", err)
	}
	if _, err := link.Run(goldenPayload, 2); !errors.Is(err, errDevice) {
		t.Errorf("Run with a failing sink: %v, want a device error", err)
	}
	if err := link.Tap(nil); err != nil {
		t.Fatal(err)
	}
	if st, err := link.Run(goldenPayload, 2); err != nil || st.Failures != 0 {
		t.Errorf("untapped run: %+v, %v", st, err)
	}
}

// TestOpenReplayValidatesAndSurfacesDeviceErrors pins the replay seam:
// OpenReplay refuses a nil side or a rate mismatch, a stored packet
// demodulates exactly, and a failing or out-of-range packet is a device
// error rather than a packet loss.
func TestOpenReplayValidatesAndSurfacesDeviceErrors(t *testing.T) {
	rx := mustNew(t, "ble")
	wave, err := mustNew(t, "ble").ModulateInto(nil, goldenPayload)
	if err != nil {
		t.Fatal(err)
	}
	src := &fakeSource{rate: rx.SampleRate(), pkts: []iq.Samples{wave, wave, wave}, failAt: -1}

	if _, err := OpenReplay(nil, rx); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := OpenReplay(src, nil); err == nil {
		t.Error("nil RX modem accepted")
	}
	if _, err := OpenReplay(&fakeSource{rate: rx.SampleRate() * 2}, rx); err == nil {
		t.Error("source at the wrong sample rate accepted")
	}
	link, err := OpenReplay(src, rx)
	if err != nil {
		t.Fatal(err)
	}
	if link.src != src {
		t.Error("the replay link does not hold the bound source")
	}
	if st, err := link.Run(goldenPayload, 3); err != nil || st.Failures != 0 {
		t.Fatalf("clean replay: %+v, %v", st, err)
	}
	if _, err := link.Run(goldenPayload, 4); err == nil {
		t.Error("Run past the end of the trace accepted")
	}
	for _, k := range []int{-1, 3} {
		if _, err := link.Probe(goldenPayload, k); !errors.Is(err, errDevice) {
			t.Errorf("Probe(%d) outside the trace: %v, want a device error", k, err)
		}
	}

	src.failAt = 1
	if lost, err := link.Probe(goldenPayload, 0); err != nil || lost {
		t.Errorf("Probe(0) before the failing packet: lost %v, %v", lost, err)
	}
	if _, err := link.Probe(goldenPayload, 1); !errors.Is(err, errDevice) {
		t.Errorf("Probe of a failing packet: %v, want a device error", err)
	}
	if _, err := link.Run(goldenPayload, 3); !errors.Is(err, errDevice) {
		t.Errorf("Run over a failing packet: %v, want a device error", err)
	}

	live, err := Open(mustNew(t, "ble"), rx, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if live.src != nil {
		t.Error("a live link reports a replay source")
	}
}
