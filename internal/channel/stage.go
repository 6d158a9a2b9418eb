package channel

// The composable scenario engine. A Stage is one impairment of the RF
// medium; a Scenario (scenario.go) chains stages into a full link
// condition. Two contracts make stages safe inside the trial-parallel eval
// runner:
//
//   - ApplyInto(dst, sig) transforms sig into dst with len(dst)==len(sig);
//     dst may alias sig. After construction (and one warm-up call that
//     grows internal scratch), ApplyInto and Reset perform no heap
//     allocation, matching the DSP hot-path conventions in internal/dsp.
//   - All randomness a stage consumes is re-derived by Reset(seed) from the
//     seed alone — never from call order or wall clock — so a sweep
//     re-running a trial with the same (seed, trialIndex) reproduces its
//     output bit for bit at any worker count.
//
// A Stage is single-goroutine (it owns scratch); give each worker its own
// instance, like the demodulators.

import (
	"math"
	"math/rand"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// Stage is one impairment in a composed channel scenario.
type Stage interface {
	// Name identifies the stage in scenario descriptions.
	Name() string
	// Reset re-derives every random element of the stage from seed.
	Reset(seed int64)
	// ApplyInto writes the impaired signal into dst; dst may alias sig.
	ApplyInto(dst, sig iq.Samples) iq.Samples
}

// checkLen panics on the contract violation shared by every stage.
func checkLen(dst, sig iq.Samples) {
	if len(dst) != len(sig) {
		panic("channel: stage ApplyInto length mismatch")
	}
}

// aliased reports whether dst and sig share a backing array start.
func aliased(dst, sig iq.Samples) bool {
	return len(dst) == 0 || &dst[0] == &sig[0]
}

// growScratch returns buf resized to n, reallocating only on growth.
func growScratch(buf iq.Samples, n int) iq.Samples {
	if cap(buf) < n {
		return make(iq.Samples, n)
	}
	return buf[:n]
}

// splitmixSource is a SplitMix64 rand.Source64: one word of state, so
// Seed is a single store. Scenario.Reset reseeds every stage once per
// trial, and math/rand's default source pays a 607-word expansion loop per
// Seed — reseeding cost was half of the composed-scenario hot path
// (Reset + ApplyInto + demod) before the swap. The draw machinery on top
// (math/rand's ziggurat NormFloat64 etc.) is unchanged; only the
// underlying uniform stream differs, so scenario Monte-Carlo draws are
// re-randomized but remain a pure function of the stage's Reset seed.
type splitmixSource struct{ s uint64 }

func (m *splitmixSource) Seed(seed int64) { m.s = uint64(seed) }

func (m *splitmixSource) Uint64() uint64 {
	m.s += 0x9E3779B97F4A7C15
	z := m.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (m *splitmixSource) Int63() int64 { return int64(m.Uint64() >> 1) }

// seededRand returns a PRNG whose source can be cheaply re-seeded by Reset
// without allocating.
func seededRand() (*rand.Rand, rand.Source) {
	src := &splitmixSource{}
	return rand.New(src), src
}

// Gain scales the signal so its mean power equals a fixed received level —
// the static-link counterpart of Mobility.
type Gain struct {
	// RSSIdBm is the target mean received power.
	RSSIdBm float64
}

// NewGain returns a gain stage targeting the given RSSI.
func NewGain(rssiDBm float64) *Gain { return &Gain{RSSIdBm: rssiDBm} }

// Name implements Stage.
func (g *Gain) Name() string { return "gain" }

// Reset implements Stage; a gain has no randomness.
func (g *Gain) Reset(int64) {}

// ApplyInto implements Stage.
func (g *Gain) ApplyInto(dst, sig iq.Samples) iq.Samples {
	checkLen(dst, sig)
	if !aliased(dst, sig) {
		copy(dst, sig)
	}
	return dst.ScaleToDBm(g.RSSIdBm)
}

// Noise adds receiver noise at a fixed integrated floor — the terminal
// stage of almost every scenario. Unlike AWGN.ApplyInto it does not rescale
// the signal; compose it after a Gain or Mobility stage.
type Noise struct {
	sigma float64
	rng   *rand.Rand
	src   rand.Source
}

// NewNoise returns a noise stage at the given integrated floor in dBm.
func NewNoise(floorDBm float64) *Noise {
	rng, src := seededRand()
	return &Noise{
		sigma: math.Sqrt(iq.DBmToMilliwatts(floorDBm) / 2),
		rng:   rng,
		src:   src,
	}
}

// Name implements Stage.
func (n *Noise) Name() string { return "noise" }

// Reset implements Stage.
func (n *Noise) Reset(seed int64) { n.src.Seed(seed) }

// ApplyInto implements Stage.
func (n *Noise) ApplyInto(dst, sig iq.Samples) iq.Samples {
	checkLen(dst, sig)
	for i := range sig {
		dst[i] = sig[i] + complex(n.rng.NormFloat64()*n.sigma, n.rng.NormFloat64()*n.sigma)
	}
	return dst
}

// Tap is one path of a tapped-delay-line fading channel.
type Tap struct {
	// DelaySamples is the excess delay of this path in samples.
	DelaySamples int
	// PowerDB is the average relative path power; taps are normalized so
	// the profile's total average gain is unity.
	PowerDB float64
}

// Fading is a block-fading tapped delay line: Reset draws one complex gain
// per tap for the whole record (LoRa/BLE packets are far shorter than
// typical coherence times, so per-packet block fading is the right model).
// Tap 0 is Rician with factor K; K=0 degenerates to Rayleigh. The profile
// is normalized to unit average power, preserving the RSSI semantics of the
// surrounding Gain/Mobility stage.
type Fading struct {
	taps    []Tap
	kFactor float64

	// Precomputed draw parameters: per-tap scatter sigma, plus the tap-0
	// line-of-sight amplitude when Rician. Taps and K are fixed at
	// construction, so Reset is pure PRNG draws.
	sigmas []float64
	losAmp float64

	gains    []complex128
	maxDelay int
	rng      *rand.Rand
	src      rand.Source
	scratch  iq.Samples
}

// NewFading returns a fading stage over the given power-delay profile with
// Rician factor kFactor (linear; 0 means Rayleigh) on the first tap.
// The taps slice must be non-empty; delays must be non-negative.
func NewFading(taps []Tap, kFactor float64) *Fading {
	if len(taps) == 0 {
		panic("channel: fading needs at least one tap")
	}
	maxDelay := 0
	for _, t := range taps {
		if t.DelaySamples < 0 {
			panic("channel: negative fading tap delay")
		}
		if t.DelaySamples > maxDelay {
			maxDelay = t.DelaySamples
		}
	}
	if kFactor < 0 {
		kFactor = 0
	}
	rng, src := seededRand()
	f := &Fading{
		taps:     append([]Tap(nil), taps...),
		kFactor:  kFactor,
		sigmas:   make([]float64, len(taps)),
		gains:    make([]complex128, len(taps)),
		maxDelay: maxDelay,
		rng:      rng,
		src:      src,
	}
	var total float64
	for _, t := range taps {
		total += iq.FromDB(t.PowerDB)
	}
	for i, t := range taps {
		p := iq.FromDB(t.PowerDB) / total
		if i == 0 && kFactor > 0 {
			f.losAmp = math.Sqrt(kFactor / (kFactor + 1) * p)
			f.sigmas[i] = math.Sqrt(p / (kFactor + 1) / 2)
			continue
		}
		f.sigmas[i] = math.Sqrt(p / 2)
	}
	f.Reset(0)
	return f
}

// NewFlatFading returns a single-tap fading stage — the correct model for
// narrowband links like LoRa at 125 kHz, where multipath delay spread is
// far below a sample period.
func NewFlatFading(kFactor float64) *Fading {
	return NewFading([]Tap{{DelaySamples: 0, PowerDB: 0}}, kFactor)
}

// ExponentialTaps builds an n-tap profile with the given delay spacing and
// an exponential power decay of decayDB across the profile — a standard
// wideband urban model.
func ExponentialTaps(n, spacingSamples int, decayDB float64) []Tap {
	if n < 1 {
		n = 1
	}
	taps := make([]Tap, n)
	for i := range taps {
		frac := 0.0
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		taps[i] = Tap{DelaySamples: i * spacingSamples, PowerDB: -decayDB * frac}
	}
	return taps
}

// Name implements Stage.
func (f *Fading) Name() string { return "fading" }

// Reset implements Stage: it draws the block's tap gains.
func (f *Fading) Reset(seed int64) {
	f.src.Seed(seed)
	for i := range f.taps {
		if i == 0 && f.kFactor > 0 {
			// Rician: fixed line-of-sight component at a random phase
			// plus diffuse scatter.
			theta := f.rng.Float64() * 2 * math.Pi
			f.gains[i] = complex(f.losAmp*math.Cos(theta), f.losAmp*math.Sin(theta)) +
				complex(f.rng.NormFloat64()*f.sigmas[i], f.rng.NormFloat64()*f.sigmas[i])
			continue
		}
		f.gains[i] = complex(f.rng.NormFloat64()*f.sigmas[i], f.rng.NormFloat64()*f.sigmas[i])
	}
}

// ApplyInto implements Stage: dst[i] = Σ_k g_k · sig[i-d_k].
func (f *Fading) ApplyInto(dst, sig iq.Samples) iq.Samples {
	checkLen(dst, sig)
	src := sig
	if f.maxDelay > 0 && aliased(dst, sig) {
		// Only the aliased delay line reads behind the write index and
		// needs a stable copy; flat fading reads each index before
		// writing it, and a disjoint dst never clobbers sig.
		f.scratch = growScratch(f.scratch, len(sig))
		copy(f.scratch, sig)
		src = f.scratch
	}
	for i := range dst {
		var acc complex128
		for k, t := range f.taps {
			if j := i - t.DelaySamples; j >= 0 {
				acc += f.gains[k] * src[j]
			}
		}
		dst[i] = acc
	}
	return dst
}

// CFO models the oscillator mismatch between transmitter and receiver:
// a carrier frequency offset (fixed plus a per-trial Gaussian draw), a
// uniformly random carrier phase, and a sample-clock error that stretches
// the receive timebase (linear-interpolation resampler).
type CFO struct {
	// OffsetHz is the deterministic carrier offset component.
	OffsetHz float64
	// JitterHz is the standard deviation of the random per-trial offset.
	JitterHz float64
	// DriftPPM is the TX/RX sample-clock mismatch in parts per million;
	// positive means the transmitter's clock runs fast.
	DriftPPM float64
	// SampleRate converts the offset to radians per sample.
	SampleRate float64

	offset float64 // effective offset for this trial
	phase0 float64
	rng    *rand.Rand
	src    rand.Source
	buf    iq.Samples
}

// NewCFO returns a CFO stage. sampleRate must be positive.
func NewCFO(offsetHz, jitterHz, driftPPM, sampleRate float64) *CFO {
	if sampleRate <= 0 {
		panic("channel: CFO needs a positive sample rate")
	}
	rng, src := seededRand()
	c := &CFO{OffsetHz: offsetHz, JitterHz: jitterHz, DriftPPM: driftPPM,
		SampleRate: sampleRate, rng: rng, src: src}
	c.Reset(0)
	return c
}

// Name implements Stage.
func (c *CFO) Name() string { return "cfo" }

// Reset implements Stage.
func (c *CFO) Reset(seed int64) {
	c.src.Seed(seed)
	c.phase0 = c.rng.Float64() * 2 * math.Pi
	c.offset = c.OffsetHz
	if c.JitterHz > 0 {
		c.offset += c.rng.NormFloat64() * c.JitterHz
	}
}

// ApplyInto implements Stage.
func (c *CFO) ApplyInto(dst, sig iq.Samples) iq.Samples {
	checkLen(dst, sig)
	n := len(sig)
	if n == 0 {
		return dst
	}
	src := sig
	if c.DriftPPM != 0 {
		// The resampler reads ahead of the write index; work from a copy.
		c.buf = growScratch(c.buf, n)
		copy(c.buf, sig)
		src = c.buf
	}
	ratio := 1 + c.DriftPPM*1e-6
	inc := 2 * math.Pi * c.offset / c.SampleRate
	phase := c.phase0
	for i := 0; i < n; i++ {
		v := src[i]
		if c.DriftPPM != 0 {
			pos := float64(i) * ratio
			i0 := int(pos)
			switch {
			case i0 >= n-1:
				v = src[n-1]
			case i0 < 0:
				v = src[0]
			default:
				frac := pos - float64(i0)
				v = src[i0]*complex(1-frac, 0) + src[i0+1]*complex(frac, 0)
			}
		}
		sin, cos := math.Sincos(phase)
		dst[i] = v * complex(cos, sin)
		phase += inc
		if phase > 2*math.Pi {
			phase -= 2 * math.Pi
		} else if phase < -2*math.Pi {
			phase += 2 * math.Pi
		}
	}
	return dst
}

// SpeedOfLight converts a radial speed to a Doppler shift.
const SpeedOfLight = 299792458.0

// DopplerHz returns the carrier shift for a radial speed (positive speed =
// receding = negative shift): the offset a CFO stage applies for an
// endpoint moving along a Mobility trajectory.
func DopplerHz(speedMPS, carrierHz float64) float64 {
	return -speedMPS / SpeedOfLight * carrierHz
}

// Mobility varies the link gain over the record as the endpoint moves along
// a radial trajectory through a log-distance field — path loss is re-solved
// block by block from the instantaneous distance, so a packet long enough
// (or a node fast enough) sees its own RSSI change mid-air. Shadowing, when
// the model carries it, is drawn once per Reset (per packet), matching the
// block-fading convention.
type Mobility struct {
	// Model is the propagation field (frequency, exponent, shadowing).
	Model LogDistance
	// TxPowerDBm, TxGainDB and RxGainDB form the link budget.
	TxPowerDBm, TxGainDB, RxGainDB float64
	// StartM is the distance at the first sample.
	StartM float64
	// SpeedMPS is the radial speed; positive moves away from the source.
	SpeedMPS float64
	// SampleRate converts sample index to trajectory time.
	SampleRate float64
	// BlockSamples is the gain-update granularity (default 64).
	BlockSamples int

	shadowDB float64
	rng      *rand.Rand
	src      rand.Source
}

// NewMobility returns a mobility stage. sampleRate must be positive.
func NewMobility(model LogDistance, txPowerDBm, txGainDB, rxGainDB, startM, speedMPS, sampleRate float64) *Mobility {
	if sampleRate <= 0 {
		panic("channel: mobility needs a positive sample rate")
	}
	rng, src := seededRand()
	return &Mobility{
		Model: model, TxPowerDBm: txPowerDBm, TxGainDB: txGainDB, RxGainDB: rxGainDB,
		StartM: startM, SpeedMPS: speedMPS, SampleRate: sampleRate,
		BlockSamples: 64, rng: rng, src: src,
	}
}

// Name implements Stage.
func (m *Mobility) Name() string { return "mobility" }

// RSSIAt returns the mean received power at trajectory time t seconds,
// using the shadowing drawn by the last Reset.
func (m *Mobility) RSSIAt(t float64) float64 {
	d := m.StartM + m.SpeedMPS*t
	if d < 1 {
		d = 1
	}
	loss := m.Model.ReferenceLossDB() + 10*m.Model.Exponent*math.Log10(d) + m.shadowDB
	return m.TxPowerDBm + m.TxGainDB + m.RxGainDB - loss
}

// Reset implements Stage: it draws the packet's shadowing term.
func (m *Mobility) Reset(seed int64) {
	m.src.Seed(seed)
	m.shadowDB = 0
	if m.Model.ShadowSigmaDB > 0 {
		m.shadowDB = m.rng.NormFloat64() * m.Model.ShadowSigmaDB
	}
}

// ApplyInto implements Stage: each block is scaled so the unit-mean-power
// input sits at the trajectory's instantaneous RSSI.
func (m *Mobility) ApplyInto(dst, sig iq.Samples) iq.Samples {
	checkLen(dst, sig)
	p := sig.Power()
	if p == 0 {
		if !aliased(dst, sig) {
			copy(dst, sig)
		}
		return dst
	}
	block := m.BlockSamples
	if block < 1 {
		block = 64
	}
	norm := math.Sqrt(p)
	for lo := 0; lo < len(sig); lo += block {
		hi := lo + block
		if hi > len(sig) {
			hi = len(sig)
		}
		tMid := (float64(lo+hi) / 2) / m.SampleRate
		amp := iq.DBmToAmplitude(m.RSSIAt(tMid)) / norm
		g := complex(amp, 0)
		for i := lo; i < hi; i++ {
			dst[i] = sig[i] * g
		}
	}
	return dst
}
