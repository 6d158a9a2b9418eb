package sense

import (
	"bytes"
	"math"
	"testing"
)

// quickWorld shrinks the default world so unit tests stay fast.
func quickWorld() World {
	w := DefaultWorld()
	w.TickSamples = 512
	return w
}

func TestWorldValidate(t *testing.T) {
	good := quickWorld()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*World){
		func(w *World) { w.SampleRate = 0 },
		func(w *World) { w.SampleRate = math.Inf(1) },
		func(w *World) { w.TickSamples = 0 },
		func(w *World) { w.TickSeconds = 0 },
		func(w *World) { w.Emitters = nil },
		func(w *World) { w.Emitters[0].FreqHz = w.SampleRate },
		func(w *World) { w.Emitters[0].Duty = 1.5 },
	}
	for i, mutate := range cases {
		w := quickWorld()
		w.Emitters = append([]Emitter(nil), w.Emitters...)
		mutate(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestEmitterActive(t *testing.T) {
	if !EmitterActive(1, 0, 0, 1) || EmitterActive(1, 0, 0, 0) {
		t.Fatal("degenerate duties")
	}
	// The schedule is deterministic and roughly honors the duty cycle.
	on := 0
	const ticks = 2000
	for tick := 0; tick < ticks; tick++ {
		a := EmitterActive(7, 2, tick, 0.3)
		if a != EmitterActive(7, 2, tick, 0.3) {
			t.Fatal("schedule not deterministic")
		}
		if a {
			on++
		}
	}
	if frac := float64(on) / ticks; math.Abs(frac-0.3) > 0.05 {
		t.Fatalf("duty 0.3 produced %g", frac)
	}
	// Different emitters get decorrelated schedules.
	same := 0
	for tick := 0; tick < ticks; tick++ {
		if EmitterActive(7, 0, tick, 0.5) == EmitterActive(7, 1, tick, 0.5) {
			same++
		}
	}
	if same == ticks {
		t.Fatal("emitter schedules identical")
	}
}

func TestNewSensorRejects(t *testing.T) {
	w := quickWorld()
	if _, err := NewSensor(&w, 100, 1); err == nil {
		t.Error("non-power-of-two FFT accepted")
	}
	if _, err := NewSensor(&w, MaxReportBins*2, 1); err == nil {
		t.Error("oversized FFT accepted")
	}
	bad := quickWorld()
	bad.TickSamples = 0
	if _, err := NewSensor(&bad, 64, 1); err == nil {
		t.Error("invalid world accepted")
	}
}

// TestSensorPureFunction pins the determinism contract: a report depends
// only on (seed, node, tick) — not on which sensor instance produced it
// or in what order it measured.
func TestSensorPureFunction(t *testing.T) {
	w := quickWorld()
	a, err := NewSensor(&w, 64, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSensor(&w, 64, 99)
	if err != nil {
		t.Fatal(err)
	}
	// a measures in order; b interleaves other (node, tick) pairs first.
	wantWire := func(s *Sensor, node, tick int) []byte {
		wire, err := s.Measure(node, tick).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	w5t2 := wantWire(a, 5, 2)
	_ = wantWire(b, 0, 0)
	_ = wantWire(b, 5, 3)
	if !bytes.Equal(w5t2, wantWire(b, 5, 2)) {
		t.Fatal("report depends on measurement history")
	}
	// A different seed must change the measurement.
	c, _ := NewSensor(&w, 64, 100)
	if bytes.Equal(w5t2, wantWire(c, 5, 2)) {
		t.Fatal("seed does not reach the measurement")
	}
	// Different nodes see different spectra (different link distances).
	if bytes.Equal(wantWire(a, 0, 2), wantWire(a, 900, 2)) {
		t.Fatal("node index does not reach the measurement")
	}
}

// TestSensorPhysics sanity-checks the world model end to end: a
// always-on strong emitter shows up in the right bin for a near node,
// and occupancy decays with distance.
func TestSensorPhysics(t *testing.T) {
	w := quickWorld()
	w.Emitters = []Emitter{{FreqHz: 250e3, OffsetM: 0, TxPowerDBm: 20, Duty: 1}}
	w.Model.ShadowSigmaDB = 0
	const fft = 64
	s, err := NewSensor(&w, fft, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Measure(0, 0)

	// The emitter sits at +250 kHz of a 1 MHz band: bin fft/2 + fft/4.
	peakBin, peakQ := 0, int16(math.MinInt16)
	for i, c := range rep.Codes {
		if c > peakQ {
			peakBin, peakQ = i, c
		}
	}
	if want := fft/2 + fft/4; peakBin != want {
		t.Fatalf("peak in bin %d, want %d", peakBin, want)
	}
	// Free-space-ish sanity: received power matches the model's RSSI
	// within the quantizer + estimator slack.
	d := w.NodeStartM
	want := w.Model.RSSIdBm(20, 0, 0, d, 0)
	if got := CodeToDBm(peakQ); math.Abs(got-want) > 1.5 {
		t.Fatalf("peak %g dBm, model says %g", got, want)
	}

	// A node 100× further sees a weaker peak.
	far, _ := NewSensor(&w, fft, 3)
	farRep := far.Measure(2000, 0)
	_, farQ := 0, int16(math.MinInt16)
	for _, c := range farRep.Codes {
		if c > farQ {
			farQ = c
		}
	}
	if farQ >= peakQ {
		t.Fatalf("distance does not attenuate: near %d, far %d", peakQ, farQ)
	}
}

// TestSensorMeasureZeroAllocs pins the sensor's hot-path contract: after
// one warm-up call, synthesizing, estimating and quantizing a tick never
// touches the heap.
func TestSensorMeasureZeroAllocs(t *testing.T) {
	w := quickWorld()
	s, err := NewSensor(&w, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.Measure(0, 0)
	node := 0
	if n := testing.AllocsPerRun(50, func() {
		node++
		s.Measure(node, node%4)
	}); n != 0 {
		t.Fatalf("Measure allocates %.0f times per tick, want 0", n)
	}
}
