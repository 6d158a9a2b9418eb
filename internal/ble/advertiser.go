package ble

import (
	"time"

	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/radio"
)

// Advertiser transmits one beacon sequentially on the three advertising
// channels, hopping as fast as the radio's synthesizer allows. tinySDR
// achieves a 220 µs inter-beacon gap (Fig. 13) — the AT86RF215 frequency
// switch time — versus ≈350 µs on an iPhone 8.
type Advertiser struct {
	Beacon Beacon
	Mod    *Modulator
	// HopDelay is the gap between channels; default is the radio's
	// 220 µs retune time.
	HopDelay time.Duration
}

// NewAdvertiser returns an advertiser using the radio's hop latency.
func NewAdvertiser(b Beacon, sps int) (*Advertiser, error) {
	m, err := NewModulator(sps)
	if err != nil {
		return nil, err
	}
	return &Advertiser{Beacon: b, Mod: m, HopDelay: radio.FreqSwitchTime}, nil
}

// BeaconEvent records one on-air beacon within a burst.
type BeaconEvent struct {
	Channel AdvChannel
	Start   time.Duration
	End     time.Duration
}

// AirTime returns the duration of one beacon transmission.
func (a *Advertiser) AirTime() (time.Duration, error) {
	air, err := a.Beacon.AirBytes(AdvChannels[0].Number)
	if err != nil {
		return 0, err
	}
	return time.Duration(float64(len(air)*8) / BitRate * float64(time.Second)), nil
}

// Burst produces the envelope-level waveform of one advertising event:
// three beacons separated by the hop delay, as an envelope detector sees it
// (Fig. 13). It also returns the event timeline.
func (a *Advertiser) Burst() (iq.Samples, []BeaconEvent, error) {
	sampleRate := a.Mod.SampleRate()
	toSamples := func(d time.Duration) int {
		return int(d.Seconds() * sampleRate)
	}
	var events []BeaconEvent
	var out iq.Samples
	now := time.Duration(0)
	for i, ch := range AdvChannels {
		wave, err := a.Mod.ModulateBeacon(a.Beacon, ch.Number)
		if err != nil {
			return nil, nil, err
		}
		dur := time.Duration(float64(len(wave)) / sampleRate * float64(time.Second))
		events = append(events, BeaconEvent{Channel: ch, Start: now, End: now + dur})
		out = append(out, wave...)
		now += dur
		if i < len(AdvChannels)-1 {
			gap := make(iq.Samples, toSamples(a.HopDelay))
			out = append(out, gap...)
			now += a.HopDelay
		}
	}
	return out, events, nil
}
