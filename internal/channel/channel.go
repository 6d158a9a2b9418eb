// Package channel models the RF medium between simulated radios: thermal
// noise at the receiver, log-distance path loss for the campus testbed, and
// superposition of concurrent transmitters.
//
// Every stochastic element draws from a caller-seeded PRNG so experiments
// are reproducible bit-for-bit.
package channel

import (
	"math"
	"math/rand"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// ThermalNoiseDBmPerHz is the kT floor at 290 K.
const ThermalNoiseDBmPerHz = -174

// NoiseFloorDBm returns the receiver noise power integrated over a bandwidth
// for a given system noise figure.
func NoiseFloorDBm(bwHz, noiseFigureDB float64) float64 {
	return ThermalNoiseDBmPerHz + 10*math.Log10(bwHz) + noiseFigureDB
}

// AWGN is an additive-white-Gaussian-noise channel anchored at a receiver
// noise floor. The floor corresponds to the simulation sample rate: callers
// must pass the noise power integrated across the full sampled bandwidth.
type AWGN struct {
	rng      *rand.Rand
	floorDBm float64
	noise    iq.Samples // ApplyInto scratch, grown to the largest record
}

// NewAWGN returns a channel with the given integrated noise floor in dBm.
func NewAWGN(seed int64, floorDBm float64) *AWGN {
	return &AWGN{rng: rand.New(rand.NewSource(seed)), floorDBm: floorDBm}
}

// NoiseInto fills dst with receiver noise at the floor power and returns
// dst. It performs no allocation.
func (c *AWGN) NoiseInto(dst iq.Samples) iq.Samples {
	sigma := math.Sqrt(iq.DBmToMilliwatts(c.floorDBm) / 2)
	for i := range dst {
		dst[i] = complex(c.rng.NormFloat64()*sigma, c.rng.NormFloat64()*sigma)
	}
	return dst
}

// Noise returns n samples of receiver noise at the floor power.
func (c *AWGN) Noise(n int) iq.Samples {
	return c.NoiseInto(make(iq.Samples, n))
}

// ApplyInto writes sig received at the given RSSI into dst: the transmit
// waveform is scaled so its mean power equals rssiDBm, then summed with
// noise at the floor. len(dst) must equal len(sig); dst may alias sig only
// if they are the same slice. The noise is drawn into the channel's own
// scratch, so a sweep allocates nothing per packet.
func (c *AWGN) ApplyInto(dst, sig iq.Samples, rssiDBm float64) iq.Samples {
	if len(dst) != len(sig) {
		panic("channel: ApplyInto length mismatch")
	}
	copy(dst, sig)
	dst.ScaleToDBm(rssiDBm)
	return dst.Add(c.NoiseInto(c.scratchNoise(len(dst))))
}

// scratchNoise returns the channel's noise scratch buffer at size n.
func (c *AWGN) scratchNoise(n int) iq.Samples {
	if cap(c.noise) < n {
		c.noise = make(iq.Samples, n)
	}
	return c.noise[:n]
}

// ApplyMulti superimposes several transmissions, each at its own RSSI and
// sample offset, over a noise record of length n — the §6 concurrent
// reception scenario. Source i is scaled to rssis[i] and added starting at
// offsets[i].
func (c *AWGN) ApplyMulti(n int, sigs []iq.Samples, rssis []float64, offsets []int) iq.Samples {
	if len(sigs) != len(rssis) || len(sigs) != len(offsets) {
		panic("channel: sigs/rssis/offsets length mismatch")
	}
	out := c.Noise(n)
	for i, s := range sigs {
		scaled := s.Clone()
		scaled.ScaleToDBm(rssis[i])
		out.AddAt(offsets[i], scaled)
	}
	return out
}
