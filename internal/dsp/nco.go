package dsp

import (
	"math"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// The tinySDR FPGA generates carriers and chirps with a phase accumulator
// addressing sin/cos lookup tables (LoRa Backscatter architecture, cited as
// [67] in the paper). We model the same datapath: a 32-bit phase accumulator
// whose top lutAddrBits bits address a table of 13-bit samples.
const (
	lutAddrBits = 10
	lutSize     = 1 << lutAddrBits
	lutScale    = 4095 // 13-bit signed amplitude
)

var sinLUT, cosLUT [lutSize]float64

func init() {
	for i := 0; i < lutSize; i++ {
		ang := 2 * math.Pi * float64(i) / lutSize
		// Quantize the table entries to the 13-bit DAC grid.
		sinLUT[i] = math.Round(math.Sin(ang)*lutScale) / lutScale
		cosLUT[i] = math.Round(math.Cos(ang)*lutScale) / lutScale
	}
}

// lutSample returns the quantized complex exponential for a 32-bit phase word.
func lutSample(phase uint32) complex128 {
	idx := phase >> (32 - lutAddrBits)
	return complex(cosLUT[idx], sinLUT[idx])
}

// NCO is a numerically controlled oscillator: the FPGA single-tone modulator
// used for the Fig. 8 spectrum measurement, and the phase stage of the chirp
// generator.
type NCO struct {
	phase uint32
	step  uint32
}

// NewNCO returns an NCO producing the given normalized frequency
// (cycles/sample, -0.5 <= f < 0.5).
func NewNCO(freq float64) *NCO {
	n := &NCO{}
	n.SetFrequency(freq)
	return n
}

// SetFrequency retunes the oscillator without resetting phase, as the
// hardware does during frequency hopping.
func (n *NCO) SetFrequency(freq float64) {
	n.step = uint32(int32(math.Round(freq * (1 << 32))))
}

// Next returns the next sample and advances the phase accumulator.
func (n *NCO) Next() complex128 {
	s := lutSample(n.phase)
	n.phase += n.step
	return s
}

// Generate produces count samples into a new buffer.
func (n *NCO) Generate(count int) iq.Samples {
	out := make(iq.Samples, count)
	for i := range out {
		out[i] = n.Next()
	}
	return out
}
