package channel

import (
	"math"
	"math/rand"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// DefaultDropoutDepthDB is the attenuation applied inside a dropout window
// when the scenario does not specify one: 40 dB puts the signal well under
// any practical noise floor, modeling a full receiver squelch.
const DefaultDropoutDepthDB = 40.0

// Dropout models an RX desync / frame-loss burst inside the record: with
// probability Prob per trial the receiver loses the signal for a contiguous
// window, which is attenuated by DepthDB while the noise floor (a later
// Noise stage) persists. It is the waveform-level counterpart of the
// internal/fault desync and duty-cycle faults — the same impairment the
// chaos harness injects at the OTA protocol layer, here visible to the
// demodulators.
//
// The window's position and extent are drawn as fractions of the record at
// Reset, so a trial's dropout is a pure function of the seed and is
// independent of the record length the stage is later applied to.
type Dropout struct {
	// Prob is the per-trial probability the record contains a dropout.
	Prob float64
	// DepthDB is the attenuation inside the window (positive dB).
	DepthDB float64

	active    bool
	startFrac float64
	lenFrac   float64
	rng       *rand.Rand
	src       rand.Source
}

// NewDropout returns a dropout stage with the given per-trial probability
// and attenuation depth; depthDB <= 0 selects DefaultDropoutDepthDB.
func NewDropout(prob, depthDB float64) *Dropout {
	if depthDB <= 0 {
		depthDB = DefaultDropoutDepthDB
	}
	rng, src := seededRand()
	d := &Dropout{Prob: prob, DepthDB: depthDB, rng: rng, src: src}
	d.Reset(0)
	return d
}

// Name implements Stage.
func (d *Dropout) Name() string { return "dropout" }

// Reset implements Stage: it draws whether this trial drops out, and where.
func (d *Dropout) Reset(seed int64) {
	d.src.Seed(seed)
	// All three draws are consumed every Reset so the (start, length)
	// stream stays aligned with the activation stream across trials.
	hit := d.rng.Float64()
	d.startFrac = d.rng.Float64()
	// Window extent: 10%..60% of the record, clipped at the record end.
	d.lenFrac = 0.1 + 0.5*d.rng.Float64()
	d.active = hit < d.Prob
}

// ApplyInto implements Stage.
func (d *Dropout) ApplyInto(dst, sig iq.Samples) iq.Samples {
	checkLen(dst, sig)
	if !aliased(dst, sig) {
		copy(dst, sig)
	}
	if !d.active || len(dst) == 0 {
		return dst
	}
	lo := int(d.startFrac * float64(len(dst)))
	hi := lo + int(d.lenFrac*float64(len(dst)))
	if hi > len(dst) {
		hi = len(dst)
	}
	g := complex(math.Pow(10, -d.DepthDB/20), 0)
	for i := lo; i < hi; i++ {
		dst[i] *= g
	}
	return dst
}
