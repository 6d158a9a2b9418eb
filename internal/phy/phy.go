// Package phy defines the protocol-agnostic physical-layer contract of the
// platform: one Modem interface that LoRa, BLE and backscatter all satisfy,
// a deterministic registry keyed by protocol name, and a Link pipeline that
// binds a TX modem, a composed channel scenario and an RX modem into a
// reproducible measurement loop.
//
// This is the waveform-agnostic abstraction the tinySDR hardware argument
// implies: the platform's radio/FPGA substrate does not care which IoT PHY
// runs on it, so neither should the experiment harness. Adding a protocol
// means implementing Modem and adding its builder to the registry table —
// the scenario grammar's interferer terms, the eval sweeps' -phy selection
// and the facade's OpenLink all pick it up without further wiring.
package phy

import (
	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/iq"
)

// Modem is one protocol's physical layer: waveform synthesis, packet
// recovery and the link-budget anchors, all tied to a single radio profile
// so sensitivity and noise floor can never come from different noise
// figures.
//
// Modems own scratch arenas (demodulator FFT state, filter history) and are
// NOT safe for concurrent use: give each goroutine its own instance.
// Construction is deterministic, so copies behave identically — the
// property the trial-parallel sweeps rely on.
type Modem interface {
	// Name is the protocol's registry name, e.g. "lora".
	Name() string
	// SampleRate is the baseband rate of Modulate/Demodulate waveforms in
	// Hz.
	SampleRate() float64
	// Radio is the receive-chain profile the modem is calibrated against;
	// SensitivityDBm and NoiseFloorDBm both derive from it.
	Radio() channel.RadioProfile
	// SensitivityDBm is the minimum received power for reliable packet
	// recovery.
	SensitivityDBm() float64
	// NoiseFloorDBm is the receiver noise integrated over the modem's full
	// sampled bandwidth — the figure to hand to a Noise stage or AWGN
	// channel driving this modem.
	NoiseFloorDBm() float64
	// ModulateInto synthesizes the packet waveform for a payload into
	// dst's capacity and returns the resized slice. The LoRa modem writes
	// every chirp in place, so steady-state callers reusing one buffer
	// see no waveform allocation; protocols whose synthesis chains
	// allocate internally (BLE's Gaussian filter, the backscatter tag)
	// still honor the append-into-dst shape, and the Link pipeline caches
	// the waveform of a repeated payload so no protocol pays per-packet
	// synthesis in a sweep.
	ModulateInto(dst iq.Samples, payload []byte) (iq.Samples, error)
	// DemodulateFrom recovers one packet from sig and appends its payload
	// to dst[:0]. Undecodable or corrupt (failed CRC) packets return an
	// error — the Link pipeline counts them as losses.
	DemodulateFrom(dst []byte, sig iq.Samples) ([]byte, error)
}
