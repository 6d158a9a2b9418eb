package sense

import (
	"fmt"
	"math"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/dsp"
	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/par"
)

// Emitter is one transmitter in the sensed band. Its on/off schedule is a
// global property of the world — every node sees the same emitter active
// in the same ticks — while the received power is per-node, solved by
// that node's channel.Mobility link.
type Emitter struct {
	// FreqHz is the emitter's baseband offset from the sensed band's
	// center, within ±SampleRate/2.
	FreqHz float64
	// OffsetM displaces the emitter along the node's outbound ray, so
	// different emitters sit at different link distances.
	OffsetM float64
	// TxPowerDBm is the emitter's transmit power.
	TxPowerDBm float64
	// Duty is the fraction of ticks the emitter is on, in [0, 1]. The
	// schedule is drawn deterministically from (seed, emitter, tick).
	Duty float64
}

// World is the shared RF environment a sensing fleet moves through. Nodes
// are laid out on a radial line — node k starts at NodeStartM +
// k·NodeStepM and recedes at NodeSpeedMPS — so each (node, emitter) link
// is exactly a channel.Mobility trajectory through the log-distance
// field, tick time advancing the trajectory.
type World struct {
	// Model is the propagation field shared by every link.
	Model channel.LogDistance
	// SampleRate is the sensed bandwidth in Hz.
	SampleRate float64
	// NoiseFloorDBm is each node's integrated receiver noise floor.
	NoiseFloorDBm float64
	// TickSeconds is the trajectory time between measurement ticks.
	TickSeconds float64
	// TickSamples is how many samples a node captures per tick.
	TickSamples int
	// NodeStartM and NodeStepM lay the fleet out radially.
	NodeStartM, NodeStepM float64
	// NodeSpeedMPS is the fleet's radial speed (positive recedes).
	NodeSpeedMPS float64
	// Emitters is the transmitter population.
	Emitters []Emitter
}

// DefaultWorld is a 915 MHz ISM-band campus: three emitters of different
// powers, duty cycles and link distances over a 1 MHz sensed band, nodes
// walking outward from 30 m. It is the world the eval sweep and the CLI
// default to.
func DefaultWorld() World {
	return World{
		Model:         channel.LogDistance{FreqHz: 915e6, Exponent: 2.9},
		SampleRate:    1e6,
		NoiseFloorDBm: -95,
		TickSeconds:   0.5,
		TickSamples:   2048,
		NodeStartM:    30,
		NodeStepM:     1.5,
		NodeSpeedMPS:  1.4,
		Emitters: []Emitter{
			{FreqHz: -250e3, OffsetM: 0, TxPowerDBm: 20, Duty: 0.9},
			{FreqHz: 125e3, OffsetM: 40, TxPowerDBm: 14, Duty: 0.5},
			{FreqHz: 375e3, OffsetM: 120, TxPowerDBm: 27, Duty: 0.2},
		},
	}
}

// Validate checks the world's invariants.
func (w *World) Validate() error {
	if !(w.SampleRate > 0) || math.IsInf(w.SampleRate, 0) {
		return fmt.Errorf("sense: world sample rate %g", w.SampleRate)
	}
	if w.TickSamples < 1 {
		return fmt.Errorf("sense: %d samples per tick", w.TickSamples)
	}
	if !(w.TickSeconds > 0) {
		return fmt.Errorf("sense: tick of %g seconds", w.TickSeconds)
	}
	if len(w.Emitters) == 0 {
		return fmt.Errorf("sense: world has no emitters")
	}
	for i, e := range w.Emitters {
		if math.Abs(e.FreqHz) > w.SampleRate/2 {
			return fmt.Errorf("sense: emitter %d at %g Hz outside ±%g", i, e.FreqHz, w.SampleRate/2)
		}
		if e.Duty < 0 || e.Duty > 1 {
			return fmt.Errorf("sense: emitter %d duty %g outside [0, 1]", i, e.Duty)
		}
	}
	return nil
}

// EmitterActive reports whether emitter j transmits during the given
// tick. The schedule is a pure function of (seed, j, tick) and carries no
// node dependence: an emitter is one physical transmitter, so the whole
// fleet agrees on when it is on.
func EmitterActive(seed int64, j, tick int, duty float64) bool {
	if duty >= 1 {
		return true
	}
	if duty <= 0 {
		return false
	}
	h := par.SplitSeed(par.SplitSeed(seed, ^int64(j)), int64(tick))
	return float64(uint64(h)>>11)/(1<<53) < duty
}

// Sensor measures the world on behalf of one node at a time: it
// synthesizes the node's received waveform tick by tick, estimates its
// power spectrum with one Welch pass over the tick's capture, and
// quantizes the spectrum into a Report. A Sensor owns scratch (Welch
// plan, capture, link stages) and is single-goroutine — the par
// worker-state idiom; give each worker its own and have it serve many
// nodes.
type Sensor struct {
	w    *World
	seed int64

	plan  *dsp.WelchPlan
	mobs  []*channel.Mobility
	noise *channel.Noise
	tone  iq.Samples
	acc   iq.Samples
	psd   []float64
	rep   Report
}

// NewSensor returns a sensor over the world with the given FFT size. The
// seed is the sweep-level seed every node's measurements derive from.
func NewSensor(w *World, fftSize int, seed int64) (*Sensor, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if !dsp.IsPowerOfTwo(fftSize) || fftSize > MaxReportBins {
		return nil, fmt.Errorf("sense: FFT size %d (want a power of two ≤ %d)", fftSize, MaxReportBins)
	}
	s := &Sensor{
		w:     w,
		seed:  seed,
		plan:  dsp.NewWelchPlan(fftSize),
		mobs:  make([]*channel.Mobility, len(w.Emitters)),
		noise: channel.NewNoise(w.NoiseFloorDBm),
		tone:  make(iq.Samples, w.TickSamples),
		acc:   make(iq.Samples, w.TickSamples),
		psd:   make([]float64, fftSize),
		rep:   Report{SampleRate: w.SampleRate, Codes: make([]int16, fftSize)},
	}
	for j, e := range w.Emitters {
		s.mobs[j] = channel.NewMobility(w.Model, e.TxPowerDBm, 0, 0, 1, w.NodeSpeedMPS, w.SampleRate)
	}
	return s, nil
}

// Measure produces the node's report for one tick. The result is a pure
// function of (world, seed, node, tick) — ticks may be measured in any
// order by any worker. The returned Report views the sensor's scratch;
// marshal or copy it before the next Measure call.
func (s *Sensor) Measure(node, tick int) *Report {
	w := s.w
	nodeSeed := par.SplitSeed(s.seed, int64(node))
	tickSeed := par.SplitSeed(nodeSeed, int64(tick))
	t0 := float64(tick) * w.TickSeconds
	nodeStart := w.NodeStartM + float64(node)*w.NodeStepM + w.NodeSpeedMPS*t0

	for i := range s.acc {
		s.acc[i] = 0
	}
	for j, e := range w.Emitters {
		if !EmitterActive(s.seed, j, tick, e.Duty) {
			continue
		}
		// Unit tone at the emitter's offset; phase restarts each tick so
		// the measurement depends on nothing but (seed, node, tick).
		var nco dsp.NCO
		nco.SetFrequency(e.FreqHz / w.SampleRate)
		for i := range s.tone {
			s.tone[i] = nco.Next()
		}
		// The link is literally a Mobility trajectory: the node's radial
		// position at this tick sets the start distance, and the stage's
		// own block walk supplies within-tick motion.
		mob := s.mobs[j]
		mob.StartM = nodeStart + e.OffsetM
		mob.Reset(par.SplitSeed(tickSeed, int64(j)+1))
		mob.ApplyInto(s.tone, s.tone)
		s.acc.Add(s.tone)
	}
	s.noise.Reset(par.SplitSeed(tickSeed, 0))
	s.noise.ApplyInto(s.acc, s.acc)
	s.plan.EstimateInto(s.psd, s.acc, w.SampleRate)

	s.rep.Node = uint32(node)
	s.rep.Tick = uint32(tick)
	for i, p := range s.psd {
		s.rep.Codes[i] = QuantizeDBm(p)
	}
	return &s.rep
}
