package lora

import (
	"fmt"
	"math"
)

// Analytic link model for MAC-scale simulations (the OTA protocol and the
// campus testbed), where simulating every sample of a 150-second firmware
// transfer would be wasteful. The model is a logistic waterfall anchored at
// the Semtech demodulator SNR limits. No test compares it with the
// sample-level demodulator of Figs. 10/11, and the two differ: measured at
// SF8, the demodulator reaches 10% PER 1.0 dB (32-byte payloads) to 1.8 dB
// (3-byte payloads) below the margin this model puts it at, and its
// 10%-to-90% waterfall is about 2 dB wide, not 1.

// SNRLimitDB returns the demodulation SNR threshold for a spreading factor
// (Semtech datasheet: -5 dB at SF6, stepping -2.5 dB per SF).
func SNRLimitDB(sf int) float64 {
	if sf < 6 || sf > 12 {
		panic(fmt.Sprintf("lora: SF%d outside 6..12", sf))
	}
	return -5 - 2.5*float64(sf-6)
}

// SensitivityDBm returns the receive sensitivity for a configuration and
// receiver noise figure: thermal floor + NF + SNR limit. With NF 7 and
// SF8/BW125 this is the -126 dBm of the paper and the SX1276 datasheet.
func SensitivityDBm(sf int, bwHz, noiseFigureDB float64) float64 {
	return -174 + 10*math.Log10(bwHz) + noiseFigureDB + SNRLimitDB(sf)
}

// symbolErrorRate maps SNR margin (dB above the demodulation limit) to
// chirp-symbol error probability. The waterfall steepness (≈1.2 dB scale)
// and the anchor (PER ≈ 10% at zero margin for a ~70-symbol packet) follow
// the measured behaviour of CSS demodulators.
func symbolErrorRate(marginDB float64) float64 {
	return 0.5 * math.Erfc(marginDB/1.2+2.1)
}

// PacketErrorRate returns the probability that a packet of n payload bytes
// fails at the given RSSI for a receiver with the given noise figure.
func PacketErrorRate(p Params, n int, rssiDBm, noiseFigureDB float64) float64 {
	margin := rssiDBm - SensitivityDBm(p.SF, p.BW, noiseFigureDB)
	ser := symbolErrorRate(margin)
	// FEC correction: CR >= 4/7 corrects one bad bit per codeword, which
	// in symbol terms tolerates isolated symbol errors; approximate by
	// discounting the symbol error rate.
	if p.CR >= CR47 {
		ser *= 0.6
	}
	nsym := float64(p.payloadSymbols(n)) + float64(p.PreambleLen) + 4.25
	per := 1 - math.Pow(1-ser, nsym)
	if per < 0 {
		return 0
	}
	if per > 1 {
		return 1
	}
	return per
}
