package ble

import (
	"fmt"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/iq"
)

// bleDetectionSNRdB is the in-channel SNR the discriminator receiver needs
// for reliable beacon decode. 16 dB over the ~1 MHz signal bandwidth puts
// the CC2650-profile sensitivity at -94 dBm, the Fig. 12 measurement.
const bleDetectionSNRdB = 16

// Modem adapts the BLE beacon stack to the protocol-agnostic PHY contract
// of internal/phy (satisfied structurally): a packet's payload is its
// advertising data, transmitted as a beacon from a fixed advertiser
// address on one advertising channel.
//
// The wrapped Demodulator owns scratch arenas, so a Modem is NOT safe for
// concurrent use; give each goroutine its own instance.
type Modem struct {
	// AdvAddress is the advertiser address stamped on transmitted beacons.
	AdvAddress [6]byte
	// Channel is the advertising channel (37, 38 or 39).
	Channel int

	mod     *Modulator
	demod   *Demodulator
	profile channel.RadioProfile
}

// DefaultModemAddress is the canonical advertiser address of registry-built
// modems — also the source address of the canonical coexistence
// interference waveform.
var DefaultModemAddress = [6]byte{0xC0, 0xEE, 0x11, 0x57, 0xEC, 0x02}

// NewModem returns a BLE modem at the given oversampling, calibrated
// against the given receive chain, beaconing on channel 37.
func NewModem(sps int, profile channel.RadioProfile) (*Modem, error) {
	mod, err := NewModulator(sps)
	if err != nil {
		return nil, err
	}
	demod, err := NewDemodulator(sps)
	if err != nil {
		return nil, err
	}
	return &Modem{
		AdvAddress: DefaultModemAddress,
		Channel:    AdvChannels[0].Number,
		mod:        mod,
		demod:      demod,
		profile:    profile,
	}, nil
}

// Name implements phy.Modem.
func (m *Modem) Name() string { return "ble" }

// SampleRate implements phy.Modem.
func (m *Modem) SampleRate() float64 { return m.mod.SampleRate() }

// Radio implements phy.Modem.
func (m *Modem) Radio() channel.RadioProfile { return m.profile }

// SensitivityDBm implements phy.Modem: the profile's floor over the ~1 MHz
// signal bandwidth plus the discriminator's detection SNR. Independent of
// the oversampling ratio — oversampled noise beyond the channel filter does
// not reach the detector.
func (m *Modem) SensitivityDBm() float64 {
	return m.profile.NoiseFloorDBm(BitRate) + bleDetectionSNRdB
}

// NoiseFloorDBm implements phy.Modem: the profile's floor integrated over
// the full sampled bandwidth — the figure to hand to a Noise stage.
func (m *Modem) NoiseFloorDBm() float64 {
	return m.profile.NoiseFloorDBm(m.mod.SampleRate())
}

// ModulateInto implements phy.Modem: the beacon waveform for an advertising
// payload, appended to dst[:0]. The GFSK chain (Gaussian filter, phase
// integration) synthesizes into fresh intermediates, so unlike the LoRa
// modem this path allocates per call — sweeps amortize it through the Link
// pipeline's waveform cache.
func (m *Modem) ModulateInto(dst iq.Samples, payload []byte) (iq.Samples, error) {
	if len(payload) > MaxAdvData {
		//lint:allocok error guard formats only on an invalid payload, never in a sweep
		return nil, fmt.Errorf("ble: payload %d exceeds %d-byte advertising limit", len(payload), MaxAdvData)
	}
	wave, err := m.mod.ModulateBeacon(Beacon{AdvAddress: m.AdvAddress, AdvData: payload}, m.Channel)
	if err != nil {
		return nil, err
	}
	//lint:allocok appends into caller capacity; growth amortizes through the Link waveform cache
	return append(dst[:0], wave...), nil
}

// DemodulateFrom implements phy.Modem: it locates one beacon in sig (CRC
// verified by the parser) and appends its advertising data to dst[:0].
func (m *Modem) DemodulateFrom(dst []byte, sig iq.Samples) ([]byte, error) {
	b, err := m.demod.Receive(sig, m.Channel)
	if err != nil {
		return nil, err
	}
	//lint:allocok appends into caller capacity; steady state pinned by the AllocsPerRun contracts
	return append(dst[:0], b.AdvData...), nil
}
