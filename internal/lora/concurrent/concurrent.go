// Package concurrent implements the §6 research study: decoding multiple
// concurrent LoRa transmissions with different chirp slopes on one IoT
// endpoint. Chirps with different (SF, BW) slopes are near-orthogonal
// (slope = BW²/2^SF), so parallel dechirp+FFT chains — one per
// configuration, as synthesized in fpga.ConcurrentRXDesign — can separate
// them from a single I/Q stream.
package concurrent

import (
	"fmt"

	"github.com/uwsdr/tinysdr/internal/dsp"
	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/lora"
)

// Decoder runs one demodulation chain per LoRa configuration against a
// shared sample stream at a common rate.
type Decoder struct {
	chains []*chain
}

type chain struct {
	params lora.Params
	demod  *lora.Demodulator
}

// NewDecoder builds a decoder for the given configurations. Every
// configuration's bandwidth must divide the common sample rate by a power
// of two (the per-chain oversampling ratio).
func NewDecoder(sampleRate float64, configs []lora.Params) (*Decoder, error) {
	if len(configs) == 0 {
		return nil, fmt.Errorf("concurrent: no configurations")
	}
	d := &Decoder{}
	for i, p := range configs {
		osr := sampleRate / p.BW
		if osr != float64(int(osr)) || !dsp.IsPowerOfTwo(int(osr)) {
			return nil, fmt.Errorf("concurrent: config %d: rate %v not a power-of-two multiple of BW %v", i, sampleRate, p.BW)
		}
		p.OSR = int(osr)
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("concurrent: config %d: %w", i, err)
		}
		demod, err := lora.NewDemodulator(p)
		if err != nil {
			return nil, err
		}
		d.chains = append(d.chains, &chain{params: p, demod: demod})
	}
	return d, nil
}

// Slope returns the chirp slope BW²/2^SF of chain i, the quantity whose
// difference makes two configurations orthogonal (§6).
func (d *Decoder) Slope(i int) float64 {
	p := d.chains[i].params
	return p.BW * p.BW / float64(p.NumChips())
}

// DemodAligned demodulates symbol-aligned streams for every chain from the
// shared buffer. Chain i sees its own symbol grid (symbol lengths differ
// across configurations).
func (d *Decoder) DemodAligned(sig iq.Samples) [][]int {
	out := make([][]int, len(d.chains))
	for i, c := range d.chains {
		out[i] = c.demod.DemodAlignedSymbols(sig)
	}
	return out
}

// Transmitter pairs a modulator with its symbol stream for experiment
// construction.
type Transmitter struct {
	Params lora.Params
	mod    *lora.Modulator
}

// NewTransmitter returns a transmitter whose waveform is produced at the
// common sample rate (OSR = rate/BW).
func NewTransmitter(sampleRate float64, p lora.Params) (*Transmitter, error) {
	osr := sampleRate / p.BW
	if osr != float64(int(osr)) || !dsp.IsPowerOfTwo(int(osr)) {
		return nil, fmt.Errorf("concurrent: rate %v not a power-of-two multiple of BW %v", sampleRate, p.BW)
	}
	p.OSR = int(osr)
	mod, err := lora.NewModulator(p)
	if err != nil {
		return nil, err
	}
	return &Transmitter{Params: p, mod: mod}, nil
}

// ModulateSymbols produces the raw symbol stream waveform.
func (t *Transmitter) ModulateSymbols(shifts []int) (iq.Samples, error) {
	return t.mod.ModulateSymbols(shifts)
}

// SymbolLen returns samples per symbol at the common rate.
func (t *Transmitter) SymbolLen() int {
	return t.Params.NumChips() * t.Params.OSR
}
