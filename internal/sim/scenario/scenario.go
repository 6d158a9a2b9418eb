// Package scenario turns a compact textual spec (the CLI's -scenario
// flag) plus a static link description into a composed channel.Scenario,
// running any registered PHY's live modulator (internal/phy) to synthesize
// co-channel interference. It lives in sim rather than channel so the
// channel engine stays free of protocol dependencies. Every scenario it
// builds starts at a fixed received power; a moving endpoint's link comes
// from testbed.Campus.LinkScenario, the one builder of mobility stages.
package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/dsp"
	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/phy"
)

// Resample converts sig from srcRate to dstRate by linear interpolation,
// low-pass filtering first when decimating so out-of-band energy does not
// alias into the destination band. It is a scenario-construction helper,
// not a hot-path primitive.
func Resample(sig iq.Samples, srcRate, dstRate float64) iq.Samples {
	if len(sig) == 0 || srcRate <= 0 || dstRate <= 0 || srcRate == dstRate {
		return sig.Clone()
	}
	src := sig
	if dstRate < srcRate {
		src = dsp.NewLowpass(63, 0.45*dstRate/srcRate).Filter(sig)
	}
	n := int(float64(len(sig)) * dstRate / srcRate)
	if n < 1 {
		n = 1
	}
	out := make(iq.Samples, n)
	ratio := srcRate / dstRate
	for i := range out {
		pos := float64(i) * ratio
		i0 := int(pos)
		if i0 >= len(src)-1 {
			out[i] = src[len(src)-1]
			continue
		}
		frac := pos - float64(i0)
		out[i] = src[i0]*complex(1-frac, 0) + src[i0+1]*complex(frac, 0)
	}
	return out
}

// interfererPayload is the canonical payload every registered PHY
// modulates for its interference waveform. The LoRa kind keeps the 6-byte
// packet it has always injected (same on-air length and symbol content as
// the PR-3 waveform; the committed coexistence numbers were re-measured
// for PR 4's radio-profile fix regardless), newer kinds share a readable
// canonical payload.
func interfererPayload(kind string) []byte {
	if kind == "lora" {
		return []byte{0xC0, 0xEE, 0x57, 0xA7, 0x10, 0x4E}
	}
	return []byte("tinysdr-coex")
}

// DefaultInterfererWaveform builds the canonical interference waveform for
// any registered PHY at the link rate: the protocol's registry modem
// transmits the canonical payload and the result is resampled to the
// victim rate. It is the single definition shared by Spec.Build and the
// eval coexistence sweep, so the CLI's -scenario interference and the
// committed sweep curves never diverge.
func DefaultInterfererWaveform(kind string, dstRate float64) (iq.Samples, error) {
	m, err := phy.New(kind)
	if err != nil {
		return nil, fmt.Errorf("sim: interferer: %w", err)
	}
	sig, err := m.ModulateInto(nil, interfererPayload(kind))
	if err != nil {
		return nil, fmt.Errorf("sim: interferer %s: %w", kind, err)
	}
	return Resample(sig, m.SampleRate(), dstRate), nil
}

// Link describes the static victim link a scenario is built for: its
// rate, its received power and its noise floor.
type Link struct {
	// SampleRate is the victim receiver's baseband rate.
	SampleRate float64
	// RSSIdBm is the mean received signal power, the Gain stage's target.
	RSSIdBm float64
	// FloorDBm is the integrated receiver noise floor.
	FloorDBm float64
	// InterfererWave, when non-nil, is a prebuilt interference waveform
	// already at SampleRate; Build uses it instead of synthesizing
	// DefaultInterfererWaveform, so sweeps can modulate and resample the
	// source once and share it read-only across trials.
	InterfererWave iq.Samples
}

// Spec is the parsed form of a -scenario string: which impairments
// to compose, independent of any one link's rates and budgets.
type Spec struct {
	// FadingKind is "", "rayleigh" or "rician".
	FadingKind string
	// FadingKdB is the Rician K factor in dB.
	FadingKdB float64
	// FadingTaps is the delay profile's tap count; one tap means flat
	// fading.
	FadingTaps int

	// CFOHz, CFOJitterHz and DriftPPM configure the oscillator stage.
	CFOHz       float64
	CFOJitterHz float64
	DriftPPM    float64

	// Interferer is "" or any registered PHY name (phy.Names());
	// InterfererDBm its received power; InterfererFreqHz its carrier
	// offset from the victim.
	Interferer       string
	InterfererDBm    float64
	InterfererFreqHz float64

	// DropoutProb is the per-trial probability of an RX dropout burst;
	// DropoutDepthDB its attenuation (0 means the stage default).
	DropoutProb    float64
	DropoutDepthDB float64
}

// maxFadingTaps bounds a fading term's tap count, so a spec cannot ask
// the delay line for an unbounded allocation.
const maxFadingTaps = 64

// Parse parses the compact comma-separated scenario grammar:
//
//	fading=rayleigh[:taps] | fading=rician:KdB[:taps]
//	cfo=HZ  cfojitter=HZ  drift=PPM
//	interferer=KIND:DBM[:FREQHZ]   (KIND: any registered PHY — phy.Names())
//	dropout=PROB[:DEPTHDB]
//
// e.g. "fading=rician:10,cfo=200,drift=20,interferer=lora:-110". Every
// number must be finite, a tap count an integer in [1, 64], and a
// repeated term replaces the earlier one. The empty spec and "clean",
// which is how String renders it, select no impairment.
func Parse(s string) (*Spec, error) {
	spec := &Spec{FadingTaps: 1}
	if s = strings.TrimSpace(s); s == "" || s == "clean" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, _ := strings.Cut(part, "=")
		args := strings.Split(val, ":")
		num := func(i int) (float64, error) {
			if i >= len(args) || args[i] == "" {
				return 0, fmt.Errorf("sim: scenario term %q missing argument %d", part, i+1)
			}
			v, err := strconv.ParseFloat(args[i], 64)
			if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				err = fmt.Errorf("sim: scenario term %q argument %d is not finite", part, i+1)
			}
			return v, err
		}
		taps := func(i int) error {
			v, err := num(i)
			if err != nil {
				return err
			}
			if v != math.Trunc(v) || v < 1 || v > maxFadingTaps {
				return fmt.Errorf("sim: fading tap count %g is not an integer in [1, %d]", v, maxFadingTaps)
			}
			spec.FadingTaps = int(v)
			return nil
		}
		// Trailing arguments are rejected, not dropped: a user guessing
		// at the grammar must get an error, never a silently different
		// channel.
		atMost := func(n int) error {
			if len(args) > n {
				return fmt.Errorf("sim: scenario term %q has %d arguments, at most %d allowed", part, len(args), n)
			}
			return nil
		}
		var err error
		switch key {
		case "fading":
			spec.FadingKind, spec.FadingKdB, spec.FadingTaps = args[0], 0, 1
			switch args[0] {
			case "rayleigh":
				if err = atMost(2); err == nil && len(args) > 1 {
					err = taps(1)
				}
			case "rician":
				if err = atMost(3); err != nil {
					break
				}
				if spec.FadingKdB, err = num(1); err == nil && len(args) > 2 {
					err = taps(2)
				}
			default:
				err = fmt.Errorf("sim: unknown fading kind %q", args[0])
			}
		case "cfo":
			if err = atMost(1); err == nil {
				spec.CFOHz, err = num(0)
			}
		case "cfojitter":
			if err = atMost(1); err == nil {
				spec.CFOJitterHz, err = num(0)
			}
		case "drift":
			if err = atMost(1); err == nil {
				spec.DriftPPM, err = num(0)
			}
		case "interferer":
			spec.Interferer, spec.InterfererFreqHz = args[0], 0
			if !phy.Registered(spec.Interferer) {
				err = fmt.Errorf("sim: unknown interferer kind %q (registered: %v)", args[0], phy.Names())
				break
			}
			if err = atMost(3); err != nil {
				break
			}
			if spec.InterfererDBm, err = num(1); err == nil && len(args) > 2 {
				spec.InterfererFreqHz, err = num(2)
			}
		case "dropout":
			spec.DropoutDepthDB = 0
			if err = atMost(2); err != nil {
				break
			}
			if spec.DropoutProb, err = num(0); err != nil {
				break
			}
			if spec.DropoutProb < 0 || spec.DropoutProb > 1 {
				err = fmt.Errorf("sim: dropout probability %g outside [0, 1]", spec.DropoutProb)
				break
			}
			if len(args) > 1 {
				if spec.DropoutDepthDB, err = num(1); err == nil && spec.DropoutDepthDB <= 0 {
					err = fmt.Errorf("sim: dropout depth %g dB must be positive", spec.DropoutDepthDB)
				}
			}
		default:
			err = fmt.Errorf("sim: unknown scenario term %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: bad scenario term %q: %w", part, err)
		}
	}
	return spec, nil
}

// String renders the spec back into the Parse grammar.
func (s *Spec) String() string {
	var parts []string
	switch s.FadingKind {
	case "rayleigh":
		parts = append(parts, fmt.Sprintf("fading=rayleigh:%d", s.FadingTaps))
	case "rician":
		parts = append(parts, fmt.Sprintf("fading=rician:%g:%d", s.FadingKdB, s.FadingTaps))
	}
	if s.CFOHz != 0 {
		parts = append(parts, fmt.Sprintf("cfo=%g", s.CFOHz))
	}
	if s.CFOJitterHz != 0 {
		parts = append(parts, fmt.Sprintf("cfojitter=%g", s.CFOJitterHz))
	}
	if s.DriftPPM != 0 {
		parts = append(parts, fmt.Sprintf("drift=%g", s.DriftPPM))
	}
	if s.Interferer != "" {
		parts = append(parts, fmt.Sprintf("interferer=%s:%g:%g", s.Interferer, s.InterfererDBm, s.InterfererFreqHz))
	}
	if s.DropoutProb != 0 || s.DropoutDepthDB != 0 {
		if s.DropoutDepthDB != 0 {
			parts = append(parts, fmt.Sprintf("dropout=%g:%g", s.DropoutProb, s.DropoutDepthDB))
		} else {
			parts = append(parts, fmt.Sprintf("dropout=%g", s.DropoutProb))
		}
	}
	if len(parts) == 0 {
		return "clean"
	}
	return strings.Join(parts, ",")
}

// Build composes the spec into a channel scenario for one link. The stage
// order is the physical path: link budget (Gain at Link.RSSIdBm), fading,
// oscillator CFO/drift, live interference, RX dropout, then receiver
// noise.
func (s *Spec) Build(link Link) (*channel.Scenario, error) {
	if link.SampleRate <= 0 {
		return nil, fmt.Errorf("sim: scenario link needs a sample rate")
	}
	stages := []channel.Stage{channel.NewGain(link.RSSIdBm)}

	if s.FadingKind != "" {
		k := 0.0
		if s.FadingKind == "rician" {
			k = iq.FromDB(s.FadingKdB)
		}
		if s.FadingTaps <= 1 {
			stages = append(stages, channel.NewFlatFading(k))
		} else {
			const tapSpacing, decayDB = 1, 6
			taps := channel.ExponentialTaps(s.FadingTaps, tapSpacing, decayDB)
			stages = append(stages, channel.NewFading(taps, k))
		}
	}

	if s.CFOHz != 0 || s.CFOJitterHz != 0 || s.DriftPPM != 0 {
		stages = append(stages, channel.NewCFO(s.CFOHz, s.CFOJitterHz, s.DriftPPM, link.SampleRate))
	}

	if s.Interferer != "" {
		wave := link.InterfererWave
		if len(wave) == 0 {
			var err error
			if wave, err = DefaultInterfererWaveform(s.Interferer, link.SampleRate); err != nil {
				return nil, err
			}
		}
		it := channel.NewInterferer(s.Interferer, wave, s.InterfererDBm, len(wave)/2)
		it.FreqOffsetHz = s.InterfererFreqHz
		it.SampleRate = link.SampleRate
		stages = append(stages, it)
	}

	if s.DropoutProb > 0 {
		// After the signal path, before the receiver noise: the signal
		// vanishes during the burst but the noise floor persists.
		stages = append(stages, channel.NewDropout(s.DropoutProb, s.DropoutDepthDB))
	}

	stages = append(stages, channel.NewNoise(link.FloorDBm))
	return channel.NewScenario(stages...), nil
}
