package lora

import (
	"errors"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/iq"
)

// Modem bundles the LoRa modulator, demodulator and one radio profile into
// the protocol-agnostic PHY contract of internal/phy (it satisfies
// phy.Modem structurally, keeping this package free of the registry). Both
// SensitivityDBm and NoiseFloorDBm derive from the same profile, so a link
// built on a Modem cannot mix noise figures.
//
// Like the Demodulator it wraps, a Modem owns scratch arenas and is NOT
// safe for concurrent use; give each goroutine its own instance.
type Modem struct {
	mod     *Modulator
	demod   *Demodulator
	profile channel.RadioProfile
}

// NewModem returns a LoRa modem for the parameters, calibrated against the
// given receive chain.
func NewModem(p Params, profile channel.RadioProfile) (*Modem, error) {
	mod, err := NewModulator(p)
	if err != nil {
		return nil, err
	}
	demod, err := NewDemodulator(p)
	if err != nil {
		return nil, err
	}
	return &Modem{mod: mod, demod: demod, profile: profile}, nil
}

// Name implements phy.Modem.
func (m *Modem) Name() string { return "lora" }

// SampleRate implements phy.Modem.
func (m *Modem) SampleRate() float64 { return m.mod.Params().SampleRate() }

// Radio implements phy.Modem.
func (m *Modem) Radio() channel.RadioProfile { return m.profile }

// SensitivityDBm implements phy.Modem: thermal floor + the profile's noise
// figure + the Semtech demodulation SNR limit for the spreading factor.
func (m *Modem) SensitivityDBm() float64 {
	p := m.mod.Params()
	return SensitivityDBm(p.SF, p.BW, m.profile.NoiseFigureDB)
}

// NoiseFloorDBm implements phy.Modem: the profile's floor integrated over
// the modem's sampled bandwidth.
func (m *Modem) NoiseFloorDBm() float64 {
	return m.profile.NoiseFloorDBm(m.mod.Params().SampleRate())
}

// ModulateInto implements phy.Modem, synthesizing the packet waveform into
// dst's capacity.
func (m *Modem) ModulateInto(dst iq.Samples, payload []byte) (iq.Samples, error) {
	return m.mod.ModulateInto(dst, payload)
}

// errCRC reports a received packet whose payload CRC failed.
var errCRC = errors.New("lora: payload CRC failed")

// DemodulateFrom implements phy.Modem: it locates and decodes one packet in
// sig and appends its payload to dst[:0]. A failed payload CRC is an error —
// the Link pipeline counts it as a lost packet, like hardware would drop it.
func (m *Modem) DemodulateFrom(dst []byte, sig iq.Samples) ([]byte, error) {
	pkt, err := m.demod.Receive(sig)
	if err != nil {
		return nil, err
	}
	if m.mod.Params().CRC && !pkt.CRCOK {
		return nil, errCRC
	}
	//lint:allocok appends into caller capacity; steady state pinned by the AllocsPerRun contracts
	return append(dst[:0], pkt.Payload...), nil
}
