package backscatter

import (
	"errors"
	"fmt"
	"math"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/iq"
)

// Modem adapts the backscatter link to the protocol-agnostic PHY contract
// of internal/phy (satisfied structurally). Its waveform is what the
// READER receives on air: the exciter's self-interference leak at DC plus
// the tag's subcarrier reflection carrying the payload bits — the
// composite a co-located receiver also sees, which is why the registry's
// canonical backscatter interference is exciter-dominated CW.
type Modem struct {
	// Config is the subcarrier link configuration.
	Config Config
	// ExciterLeak is the amplitude of the exciter tone at the reader
	// relative to unit carrier (imperfect isolation; the per-bit
	// correlation is exactly orthogonal to it).
	ExciterLeak float64
	// Reflection is the tag's reflected amplitude ratio at the reader.
	Reflection float64

	reader  *Reader
	profile channel.RadioProfile
	// tag is the reflection model ModulateInto drives; refreshed by value
	// from the public fields on every call so the hot path never
	// allocates one.
	tag Tag
}

// Default modem constants: a strong exciter leak 20 dB above carrier-half
// and a -26 dB tag reflection, the regime the §7 reader proposal targets.
const (
	DefaultExciterLeak = 0.5
	DefaultReflection  = 0.05
)

// backscatterDetectionSNRdB is the per-bit correlation SNR needed for
// reliable slicing, over the bit-rate noise bandwidth. The reader is an
// energy detector with a threshold midway between the '0' and '1'
// clusters, so it needs far more margin than a coherent slicer would.
const backscatterDetectionSNRdB = 18

// errEmptyPayload is a sentinel so the ModulateInto hot path rejects empty
// payloads without formatting an error.
var errEmptyPayload = errors.New("backscatter: empty payload")

// NewModem returns a backscatter modem for the configuration, calibrated
// against the given receive chain.
func NewModem(c Config, profile channel.RadioProfile) (*Modem, error) {
	reader, err := NewReader(c)
	if err != nil {
		return nil, err
	}
	return &Modem{
		Config:      c,
		ExciterLeak: DefaultExciterLeak,
		Reflection:  DefaultReflection,
		reader:      reader,
		profile:     profile,
	}, nil
}

// Name implements phy.Modem.
func (m *Modem) Name() string { return "backscatter" }

// SampleRate implements phy.Modem.
func (m *Modem) SampleRate() float64 { return m.Config.SampleRate }

// Radio implements phy.Modem.
func (m *Modem) Radio() channel.RadioProfile { return m.profile }

// sidebandShareDB returns how far the detected tag sideband sits below the
// composite waveform's mean power. The composite is leak power plus the
// reflection (amplitude squared at 50% '1'-bit duty), but the per-bit
// correlator sees only the +subcarrier fundamental of the tag's square
// wave, which carries (2/π)² of the reflected power.
func (m *Modem) sidebandShareDB() float64 {
	reflected := m.Reflection * m.Reflection / 2
	fundamental := reflected * 4 / (math.Pi * math.Pi)
	total := m.ExciterLeak*m.ExciterLeak + reflected
	return iq.DB(total / fundamental)
}

// SensitivityDBm implements phy.Modem: the minimum composite received
// power at which the tag sideband still clears the per-bit correlation SNR
// — the profile's floor over the bit-rate bandwidth, plus the detection
// SNR, plus the sideband's share below the composite.
func (m *Modem) SensitivityDBm() float64 {
	return m.profile.NoiseFloorDBm(m.Config.BitRate) + backscatterDetectionSNRdB + m.sidebandShareDB()
}

// NoiseFloorDBm implements phy.Modem: the profile's floor integrated over
// the reader's full sampled bandwidth.
func (m *Modem) NoiseFloorDBm() float64 {
	return m.profile.NoiseFloorDBm(m.Config.SampleRate)
}

// ModulateInto implements phy.Modem: the reader-side composite for a
// payload, appended to dst[:0] (reusing its capacity for the final
// waveform; the tag reflection itself is synthesized fresh per call, which
// sweeps amortize through the Link pipeline's waveform cache).
func (m *Modem) ModulateInto(dst iq.Samples, payload []byte) (iq.Samples, error) {
	if len(payload) == 0 {
		return nil, errEmptyPayload
	}
	m.tag = Tag{Config: m.Config, Reflection: m.Reflection}
	reflected, err := m.tag.Backscatter(bitsFromBytes(payload))
	if err != nil {
		return nil, err
	}
	if cap(dst) < len(reflected) {
		//lint:allocok amortized growth; the Link waveform cache reuses dst across a sweep
		dst = make(iq.Samples, len(reflected))
	}
	out := dst[:len(reflected)]
	leak := complex(m.ExciterLeak, 0)
	for i, x := range reflected {
		out[i] = leak + x
	}
	return out, nil
}

// DemodulateFrom implements phy.Modem: it slices every whole byte of tag
// bits in sig and appends them to dst[:0]. The frame length is implicit in
// the record length, like an implicit-header LoRa receive.
func (m *Modem) DemodulateFrom(dst []byte, sig iq.Samples) ([]byte, error) {
	nbits := len(sig) / m.Config.SamplesPerBit()
	nbits -= nbits % 8
	if nbits == 0 {
		//lint:allocok error guard formats only when the receive already failed
		return nil, fmt.Errorf("backscatter: %d samples hold no whole payload byte", len(sig))
	}
	bits, err := m.reader.Demodulate(sig, nbits)
	if err != nil {
		return nil, err
	}
	return appendBytesFromBits(dst[:0], bits), nil
}

// bitsFromBytes expands payload bytes MSB-first into tag bits.
func bitsFromBytes(payload []byte) []int {
	bits := make([]int, 0, len(payload)*8)
	for _, b := range payload {
		for i := 7; i >= 0; i-- {
			bits = append(bits, int(b>>i)&1)
		}
	}
	return bits
}

// appendBytesFromBits packs MSB-first bits back into bytes.
func appendBytesFromBits(dst []byte, bits []int) []byte {
	for i := 0; i+8 <= len(bits); i += 8 {
		var b byte
		for k := 0; k < 8; k++ {
			b = b<<1 | byte(bits[i+k]&1)
		}
		dst = append(dst, b)
	}
	return dst
}
