// Package backscatter implements the low-power backscatter building blocks
// §7 of the TinySDR paper proposes: the platform's single-tone generator
// serves as the exciter, and its I/Q receiver decodes tag reflections —
// replacing the custom readers that ambient-backscatter systems otherwise
// require.
//
// The model follows the classic subcarrier architecture: the exciter emits
// a continuous tone; the tag switches its antenna impedance at a subcarrier
// frequency, amplitude-modulating the reflection with its bits (OOK over
// the subcarrier); the reader sees the strong exciter tone at DC plus the
// tag's sidebands at ±subcarrier, isolates a sideband by mixing and
// low-pass filtering, and slices bits with an integrate-and-dump detector.
package backscatter

import (
	"fmt"
	"math"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// Config describes one backscatter link.
type Config struct {
	// SampleRate is the reader's I/Q rate (the platform's 4 MHz).
	SampleRate float64
	// SubcarrierHz is the tag's switching frequency; it offsets the tag
	// signal away from the exciter's DC self-interference.
	SubcarrierHz float64
	// BitRate is the tag data rate; SubcarrierHz must be an integer
	// multiple so each bit holds whole subcarrier cycles.
	BitRate float64
}

// Validate checks the configuration's internal consistency.
func (c Config) Validate() error {
	if c.SampleRate <= 0 || c.SubcarrierHz <= 0 || c.BitRate <= 0 {
		return fmt.Errorf("backscatter: non-positive parameter in %+v", c)
	}
	if c.SubcarrierHz >= c.SampleRate/2 {
		return fmt.Errorf("backscatter: subcarrier %v beyond Nyquist of %v", c.SubcarrierHz, c.SampleRate)
	}
	if c.SubcarrierHz < 4*c.BitRate {
		return fmt.Errorf("backscatter: subcarrier %v too slow for bit rate %v", c.SubcarrierHz, c.BitRate)
	}
	if spb := c.SampleRate / c.BitRate; spb != math.Trunc(spb) {
		return fmt.Errorf("backscatter: samples per bit %v not integral", spb)
	}
	// Whole subcarrier cycles per bit make the per-bit correlation
	// exactly orthogonal to the exciter's DC self-interference.
	if cyc := c.SubcarrierHz / c.BitRate; cyc != math.Trunc(cyc) {
		return fmt.Errorf("backscatter: %v subcarrier cycles per bit not integral", cyc)
	}
	return nil
}

// SamplesPerBit returns the reader samples spanning one tag bit.
func (c Config) SamplesPerBit() int { return int(c.SampleRate / c.BitRate) }

// DefaultConfig is a 100 kHz subcarrier, 10 kbps link at the platform's
// 4 MHz interface.
func DefaultConfig() Config {
	return Config{SampleRate: 4e6, SubcarrierHz: 100e3, BitRate: 10e3}
}

// Tag models a backscatter endpoint: it reflects the exciter carrier with
// the given reflection magnitude, switching at the subcarrier during '1'
// bits (OOK).
type Tag struct {
	Config Config
	// Reflection is the amplitude ratio of the reflected signal at the
	// reader relative to unit carrier (path loss to tag and back plus
	// antenna efficiency). Typical values are far below one.
	Reflection float64
}

// Backscatter returns the tag's contribution at the reader for a unit
// carrier: a square-wave subcarrier during '1' bits, silence during '0's.
func (t *Tag) Backscatter(bits []int) (iq.Samples, error) {
	if err := t.Config.Validate(); err != nil {
		return nil, err
	}
	if t.Reflection <= 0 || t.Reflection > 1 {
		return nil, fmt.Errorf("backscatter: reflection %v outside (0, 1]", t.Reflection)
	}
	spb := t.Config.SamplesPerBit()
	out := make(iq.Samples, len(bits)*spb)
	for i, b := range bits {
		if b == 0 {
			continue
		}
		for k := 0; k < spb; k++ {
			n := i*spb + k
			// Square-wave impedance switching at the subcarrier.
			phase := math.Mod(t.Config.SubcarrierHz*float64(n)/t.Config.SampleRate, 1)
			v := t.Reflection
			if phase >= 0.5 {
				v = -t.Reflection
			}
			out[n] = complex(v, 0)
		}
	}
	return out, nil
}

// Reader decodes tag bits from the I/Q stream, which contains the exciter's
// self-interference at DC plus the tag sidebands.
type Reader struct {
	Config Config
}

// NewReader returns a reader for the configuration.
func NewReader(c Config) (*Reader, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Reader{Config: c}, nil
}

// Demodulate recovers nbits bits starting at the buffer's beginning. The
// detector correlates each bit window against the subcarrier (one DFT bin
// per bit). Because every bit spans an integer number of subcarrier
// cycles, the correlation is exactly orthogonal to the exciter's DC leak,
// however strong — the property that lets a tinySDR read tags without a
// dedicated self-interference canceller.
func (r *Reader) Demodulate(rx iq.Samples, nbits int) ([]int, error) {
	spb := r.Config.SamplesPerBit()
	if len(rx) < nbits*spb {
		return nil, fmt.Errorf("backscatter: %d samples for %d bits", len(rx), nbits)
	}
	fNorm := r.Config.SubcarrierHz / r.Config.SampleRate
	energies := make([]float64, nbits)
	for i := 0; i < nbits; i++ {
		var acc complex128
		for k := 0; k < spb; k++ {
			n := i*spb + k
			ang := -2 * math.Pi * fNorm * float64(n)
			acc += rx[n] * complex(math.Cos(ang), math.Sin(ang))
		}
		energies[i] = real(acc)*real(acc) + imag(acc)*imag(acc)
	}
	// Threshold midway between the low and high clusters.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, e := range energies {
		lo = math.Min(lo, e)
		hi = math.Max(hi, e)
	}
	thr := (lo + hi) / 2
	bits := make([]int, nbits)
	for i, e := range energies {
		if e > thr {
			bits[i] = 1
		}
	}
	return bits, nil
}
