package channel

import (
	"math"
	"math/rand"
)

// LogDistance is the standard log-distance path-loss model with optional
// lognormal shadowing, used to map the campus testbed geometry (Fig. 7) to
// per-node link budgets.
type LogDistance struct {
	// FreqHz is the carrier frequency (sets the 1 m reference loss).
	FreqHz float64
	// Exponent is the path-loss exponent; ~2.7-3.5 for a campus with
	// buildings. The testbed uses 2.9.
	Exponent float64
	// ShadowSigmaDB is the standard deviation of lognormal shadowing.
	ShadowSigmaDB float64
}

// ReferenceLossDB returns free-space loss at 1 m for the carrier.
func (m LogDistance) ReferenceLossDB() float64 {
	// FSPL(d=1m) = 20 log10(4*pi*d*f/c)
	return 20 * math.Log10(4*math.Pi*m.FreqHz/SpeedOfLight)
}

// PathLossDB returns the loss at distance d in meters, with deterministic
// shadowing drawn from the given seed (one seed per link keeps the testbed
// reproducible). Distances under 1 m clamp to 1 m.
func (m LogDistance) PathLossDB(d float64, shadowSeed int64) float64 {
	if d < 1 {
		d = 1
	}
	loss := m.ReferenceLossDB() + 10*m.Exponent*math.Log10(d)
	if m.ShadowSigmaDB > 0 {
		rng := rand.New(rand.NewSource(shadowSeed))
		loss += rng.NormFloat64() * m.ShadowSigmaDB
	}
	return loss
}

// RSSIdBm returns the received power for a transmit power and antenna gains
// over a link of distance d.
func (m LogDistance) RSSIdBm(txDBm, txGainDB, rxGainDB, d float64, shadowSeed int64) float64 {
	return txDBm + txGainDB + rxGainDB - m.PathLossDB(d, shadowSeed)
}

// RangeFor returns the distance at which RSSI falls to the given sensitivity
// (ignoring shadowing) — used to sanity-check testbed geometry against LoRa
// link budgets.
func (m LogDistance) RangeFor(txDBm, txGainDB, rxGainDB, sensitivityDBm float64) float64 {
	budget := txDBm + txGainDB + rxGainDB - sensitivityDBm
	exp := (budget - m.ReferenceLossDB()) / (10 * m.Exponent)
	return math.Pow(10, exp)
}
