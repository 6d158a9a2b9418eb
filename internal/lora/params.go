// Package lora implements the LoRa physical layer from scratch, following
// the architecture tinySDR runs on its FPGA (Fig. 6): a CSS chirp modulator
// and an FFT demodulator, together with the full transport chain — whitening,
// Hamming forward error correction, diagonal interleaving, Gray mapping,
// explicit header, and payload CRC.
//
// The modulator and demodulator operate on complex baseband sample buffers
// at OSR samples per chip, the stream the FPGA sees after its front-end
// decimates the radio's 4 MHz interface to the protocol bandwidth.
package lora

import (
	"fmt"
	"math"
	"time"

	"github.com/uwsdr/tinysdr/internal/dsp"
)

// CodingRate is a LoRa coding rate 4/(4+CR).
type CodingRate int

// The four LoRa coding rates.
const (
	CR45 CodingRate = 1 // 4/5: single parity, detect-only
	CR46 CodingRate = 2 // 4/6: two parity bits, detect-only
	CR47 CodingRate = 3 // 4/7: Hamming(7,4), corrects one bit
	CR48 CodingRate = 4 // 4/8: Hamming(8,4), corrects one, detects two
)

// String renders the rate as the conventional fraction.
func (c CodingRate) String() string { return fmt.Sprintf("4/%d", 4+int(c)) }

// CodewordBits returns the encoded width of one nibble.
func (c CodingRate) CodewordBits() int { return 4 + int(c) }

// Valid bandwidths in Hz (the Semtech set the paper quotes: 7.8125 kHz to
// 500 kHz; tinySDR's 4 MHz front end covers all of them).
var validBWs = map[float64]bool{
	7812.5: true, 10400: true, 15600: true, 20800: true, 31250: true,
	41700: true, 62500: true, 125000: true, 250000: true, 500000: true,
}

// Params configures one LoRa PHY instance.
type Params struct {
	// SF is the spreading factor, 7..12: bits per chirp symbol. (SF6
	// needs the implicit header; every packet here carries the explicit
	// one.)
	SF int
	// BW is the chirp bandwidth in Hz.
	BW float64
	// CR is the coding rate for payload blocks (the header always uses 4/8).
	CR CodingRate
	// PreambleLen is the number of base upchirps before the sync word.
	// tinySDR uses 10 (Fig. 5); the OTA system uses 8 (§5.3).
	PreambleLen int
	// SyncWord selects the two sync symbols following the preamble.
	SyncWord byte
	// CRC appends a 16-bit payload CRC.
	CRC bool
	// LowDataRateOptimize encodes payload blocks at SF-2 bits per symbol,
	// required by the standard at long symbol times.
	LowDataRateOptimize bool
	// OSR is samples per chip for the waveform (power of two >= 1).
	OSR int
	// Ideal selects infinite-precision chirps (comparator silicon) instead
	// of tinySDR's 13-bit LUT datapath.
	Ideal bool
}

// DefaultParams returns the paper's LoRa case-study configuration:
// SF8, 125 kHz, CR 4/5, explicit header, CRC, 10-symbol preamble.
func DefaultParams() Params {
	return Params{
		SF: 8, BW: 125e3, CR: CR45, PreambleLen: 10, SyncWord: 0x12,
		CRC: true, OSR: 1,
	}
}

// Validate checks the configuration against protocol and implementation
// limits.
func (p Params) Validate() error {
	if p.SF == 6 {
		return fmt.Errorf("lora: SF6 needs the implicit header, and every packet carries the explicit one")
	}
	if p.SF < 7 || p.SF > 12 {
		return fmt.Errorf("lora: SF%d outside 7..12", p.SF)
	}
	if !validBWs[p.BW] {
		return fmt.Errorf("lora: bandwidth %v Hz not a LoRa bandwidth", p.BW)
	}
	if p.CR < CR45 || p.CR > CR48 {
		return fmt.Errorf("lora: coding rate %d outside 1..4", int(p.CR))
	}
	if p.PreambleLen < 6 || p.PreambleLen > 65535 {
		return fmt.Errorf("lora: preamble length %d outside 6..65535", p.PreambleLen)
	}
	if p.OSR < 1 || !dsp.IsPowerOfTwo(p.OSR) {
		return fmt.Errorf("lora: OSR %d must be a power of two", p.OSR)
	}
	return nil
}

// chirpGen returns the configured chirp generator.
func (p Params) chirpGen() dsp.ChirpGen {
	return dsp.ChirpGen{SF: p.SF, OSR: p.OSR, Ideal: p.Ideal}
}

// NumChips returns chips per symbol, 2^SF.
func (p Params) NumChips() int { return 1 << p.SF }

// SampleRate returns the waveform sample rate in Hz.
func (p Params) SampleRate() float64 { return p.BW * float64(p.OSR) }

// payloadSymbols returns the number of payload-section symbols for a payload
// of n bytes, per the Semtech air-time formula. The first block (8 symbols)
// is always present.
func (p Params) payloadSymbols(n int) int {
	de := 0
	if p.LowDataRateOptimize {
		de = 1
	}
	crc := 0
	if p.CRC {
		crc = 1
	}
	num := 8*n - 4*p.SF + 28 + 16*crc
	den := 4 * (p.SF - 2*de)
	extra := 0
	if num > 0 {
		extra = int(math.Ceil(float64(num)/float64(den))) * (int(p.CR) + 4)
	}
	return 8 + extra
}

// TimeOnAir returns the full packet duration for a payload of n bytes:
// preamble + sync + SFD + payload symbols.
func (p Params) TimeOnAir(n int) time.Duration {
	tSym := float64(p.NumChips()) / p.BW
	preamble := (float64(p.PreambleLen) + 4.25) * tSym // sync(2) + SFD(2.25)
	payload := float64(p.payloadSymbols(n)) * tSym
	return time.Duration((preamble + payload) * float64(time.Second))
}

// syncShifts returns the two sync-symbol cyclic shifts derived from the
// sync word (one nibble per symbol, scaled by 8 as in commercial silicon).
func (p Params) syncShifts() (int, int) {
	n := p.NumChips()
	return (int(p.SyncWord>>4) * 8) % n, (int(p.SyncWord&0xF) * 8) % n
}
