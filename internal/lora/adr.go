package lora

// Rate adaptation (§7 poses "Are there benefits of rate adaptation?").
// AdaptSF implements the standard LoRaWAN ADR decision: pick the fastest
// spreading factor whose sensitivity still leaves the requested margin at
// the observed RSSI. Lower SF means shorter airtime and less energy per
// packet; higher SF buys sensitivity.

// MinAdaptSF is the lowest SF rate adaptation selects: SF6 needs the
// implicit header and every packet carries the explicit one, so adaptive
// links start at SF7.
const MinAdaptSF = 7

// AdaptSF returns the lowest SF in [MinAdaptSF, 12] whose link margin
// (RSSI − sensitivity) is at least marginDB, or 12 when even the slowest
// rate lacks margin.
func AdaptSF(rssiDBm, bwHz, noiseFigureDB, marginDB float64) int {
	for sf := MinAdaptSF; sf <= 12; sf++ {
		if rssiDBm-SensitivityDBm(sf, bwHz, noiseFigureDB) >= marginDB {
			return sf
		}
	}
	return 12
}
