package channel

import (
	"math"
	"math/rand"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// Interferer injects a co-channel transmission captured from a second live
// modulator — a LoRa packet over a LoRa link, a BLE beacon bleeding into a
// LoRa sweep, and so on. The interfering waveform is supplied at
// construction (see internal/sim for the builders that run the real
// modulators); each Reset re-draws the victim/interferer time alignment and
// rescales the waveform to the configured received power, so every trial
// sees a fresh asynchronous overlap.
type Interferer struct {
	// PowerDBm is the interferer's mean received power.
	PowerDBm float64
	// FreqOffsetHz shifts the interferer's carrier relative to the victim
	// channel (0 = co-channel).
	FreqOffsetHz float64
	// SampleRate converts FreqOffsetHz to radians per sample; required
	// when FreqOffsetHz is non-zero.
	SampleRate float64
	// MaxOffsetSamples bounds the random start offset drawn per trial.
	MaxOffsetSamples int

	kind     string
	waveform iq.Samples // read-only source waveform, shareable across workers
	scaled   iq.Samples
	offset   int
	rng      *rand.Rand
	src      rand.Source

	// cachedFor remembers the parameters the scaled record was built
	// with: only the start offset is trial-dependent, so Reset rebuilds
	// the record only when a caller mutated the exported fields.
	cachedFor struct {
		powerDBm, freqOffsetHz, sampleRate float64
		valid                              bool
	}
}

// NewInterferer returns an interferer stage. kind labels the source in
// scenario descriptions ("lora", "ble", ...). The waveform is treated as
// read-only and may be shared across worker-private stages.
func NewInterferer(kind string, waveform iq.Samples, powerDBm float64, maxOffsetSamples int) *Interferer {
	if len(waveform) == 0 {
		panic("channel: interferer needs a waveform")
	}
	if maxOffsetSamples < 0 {
		maxOffsetSamples = 0
	}
	rng, src := seededRand()
	it := &Interferer{
		PowerDBm:         powerDBm,
		MaxOffsetSamples: maxOffsetSamples,
		kind:             kind,
		waveform:         waveform,
		rng:              rng,
		src:              src,
	}
	it.Reset(0)
	return it
}

// Name implements Stage.
func (it *Interferer) Name() string {
	if it.kind == "" {
		return "interferer"
	}
	return "interferer(" + it.kind + ")"
}

// Reset implements Stage: it draws the trial's time alignment and, when a
// caller changed the power/offset configuration since the last Reset,
// rebuilds the scaled (and frequency-shifted) interference record.
func (it *Interferer) Reset(seed int64) {
	it.src.Seed(seed)
	it.offset = 0
	if it.MaxOffsetSamples > 0 {
		it.offset = it.rng.Intn(it.MaxOffsetSamples + 1)
	}
	if it.FreqOffsetHz != 0 && it.SampleRate <= 0 {
		panic("channel: interferer FreqOffsetHz set without SampleRate")
	}
	if it.cachedFor.valid &&
		it.cachedFor.powerDBm == it.PowerDBm &&
		it.cachedFor.freqOffsetHz == it.FreqOffsetHz &&
		it.cachedFor.sampleRate == it.SampleRate {
		return
	}
	it.scaled = growScratch(it.scaled, len(it.waveform))
	copy(it.scaled, it.waveform)
	it.scaled.ScaleToDBm(it.PowerDBm)
	if it.FreqOffsetHz != 0 {
		inc := 2 * math.Pi * it.FreqOffsetHz / it.SampleRate
		phase := 0.0
		for i := range it.scaled {
			sin, cos := math.Sincos(phase)
			it.scaled[i] *= complex(cos, sin)
			phase += inc
			if phase > 2*math.Pi {
				phase -= 2 * math.Pi
			} else if phase < -2*math.Pi {
				phase += 2 * math.Pi
			}
		}
	}
	it.cachedFor.powerDBm = it.PowerDBm
	it.cachedFor.freqOffsetHz = it.FreqOffsetHz
	it.cachedFor.sampleRate = it.SampleRate
	it.cachedFor.valid = true
}

// ApplyInto implements Stage: superposition of the interference record at
// the drawn offset, clipped to the victim's record.
func (it *Interferer) ApplyInto(dst, sig iq.Samples) iq.Samples {
	checkLen(dst, sig)
	if !aliased(dst, sig) {
		copy(dst, sig)
	}
	return dst.AddAt(it.offset, it.scaled)
}
