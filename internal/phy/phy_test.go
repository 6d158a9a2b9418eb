package phy

import (
	"bytes"
	"testing"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/iq"
)

// goldenPayload is the canonical round-trip payload: it has both bit
// values in every byte position a slicer could threshold on, and fits
// BLE's 31-byte advertising limit.
var goldenPayload = []byte("tinysdr-phy-golden")

// TestRegistryCoversPlatformPHYs pins the seed registrations: the three
// protocols of the paper, in sorted (deterministic) order.
func TestRegistryCoversPlatformPHYs(t *testing.T) {
	want := []string{"backscatter", "ble", "lora"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		if !Registered(name) {
			t.Errorf("Registered(%q) = false", name)
		}
	}
	if Registered("wifi") {
		t.Error("Registered(wifi) = true")
	}
	if _, err := New("wifi"); err == nil {
		t.Error("New(wifi) succeeded")
	}
}

// TestModemContract checks the interface invariants every registered PHY
// must satisfy: a positive sample rate, a sensitivity above the thermal
// floor, and sensitivity/noise floor derived from one radio profile.
func TestModemContract(t *testing.T) {
	for _, name := range Names() {
		m, err := New(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("%s: Name() = %q", name, m.Name())
		}
		if m.SampleRate() <= 0 {
			t.Errorf("%s: sample rate %v", name, m.SampleRate())
		}
		prof := m.Radio()
		if prof.Name == "" || prof.NoiseFigureDB <= 0 {
			t.Errorf("%s: radio profile %+v", name, prof)
		}
		if got, want := m.NoiseFloorDBm(), prof.NoiseFloorDBm(m.SampleRate()); got != want {
			t.Errorf("%s: NoiseFloorDBm %v not derived from the radio profile (%v)", name, got, want)
		}
		if m.SensitivityDBm() <= -174 {
			t.Errorf("%s: sensitivity %v below thermal", name, m.SensitivityDBm())
		}
	}
}

// TestGoldenRoundTripEveryPHY is the protocol-generic loopback test that
// replaces the per-protocol scenario smoke tests: every registered PHY
// must round-trip the golden payload exactly through an identity scenario,
// and keep a low PER through the reference scenario (flat Rician fading, a
// small oscillator offset and receiver noise, 18 dB above sensitivity).
func TestGoldenRoundTripEveryPHY(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			m, err := New(name)
			if err != nil {
				t.Fatal(err)
			}

			// Identity: exact payload recovery, no channel at all.
			wave, err := m.ModulateInto(nil, goldenPayload)
			if err != nil {
				t.Fatal(err)
			}
			if len(wave) == 0 || wave.Power() == 0 {
				t.Fatal("empty waveform")
			}
			got, err := m.DemodulateFrom(nil, wave)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, goldenPayload) {
				t.Fatalf("identity round trip = %q, want %q", got, goldenPayload)
			}

			// Reference scenario through the Link pipeline.
			tx, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			rssi := m.SensitivityDBm() + 18
			sc := channel.NewScenario(
				channel.NewGain(rssi),
				channel.NewFlatFading(iq.FromDB(12)),
				channel.NewCFO(0, 50, 0, m.SampleRate()),
				channel.NewNoise(m.NoiseFloorDBm()),
			)
			link, err := Open(tx, m, sc, 7)
			if err != nil {
				t.Fatal(err)
			}
			st, err := link.Run(goldenPayload, 12)
			if err != nil {
				t.Fatal(err)
			}
			if st.PER > 0.25 {
				t.Errorf("reference-scenario PER = %.2f at %0.f dBm (sens %.0f), want <= 0.25",
					st.PER, rssi, m.SensitivityDBm())
			}
			// The measured RSSI must track the configured budget: fading is
			// unit-mean and noise sits 18 dB down, so a few dB of slack
			// covers both.
			if st.RSSIdBm < rssi-4 || st.RSSIdBm > rssi+4 {
				t.Errorf("measured RSSI %.1f dBm, configured %.1f dBm", st.RSSIdBm, rssi)
			}
		})
	}
}

// TestSensitivityAnchorsHoldOnTheLink checks every registered PHY's
// SensitivityDBm against its own Link over receiver noise: 3 dB above the
// anchor the golden payload gets through, and 6 dB below it the link has
// fallen off its PER cliff. An anchor that is optimistic or pessimistic by
// more than a few dB fails one side.
func TestSensitivityAnchorsHoldOnTheLink(t *testing.T) {
	const packets = 40
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			for _, c := range []struct{ marginDB, minPER, maxPER float64 }{
				{+3, 0, 0.10},
				{-6, 0.50, 1},
			} {
				tx, rx := mustNew(t, name), mustNew(t, name)
				sc := channel.NewScenario(
					channel.NewGain(rx.SensitivityDBm()+c.marginDB),
					channel.NewNoise(rx.NoiseFloorDBm()),
				)
				link, err := Open(tx, rx, sc, 1)
				if err != nil {
					t.Fatal(err)
				}
				st, err := link.Run(goldenPayload, packets)
				if err != nil {
					t.Fatal(err)
				}
				if st.PER < c.minPER || st.PER > c.maxPER {
					t.Errorf("PER %.2f at sensitivity%+.0f dB (%.1f dBm), want [%.2f, %.2f]",
						st.PER, c.marginDB, rx.SensitivityDBm()+c.marginDB, c.minPER, c.maxPER)
				}
			}
		})
	}
}

// TestLinkDeterministicAndSequential pins the Link randomness contract:
// Run is a fixed function of (seed, packet index), and Send advances
// packet indices in call order.
func TestLinkDeterministicAndSequential(t *testing.T) {
	open := func(seed int64) *Link {
		tx, err := New("lora")
		if err != nil {
			t.Fatal(err)
		}
		rx, err := New("lora")
		if err != nil {
			t.Fatal(err)
		}
		sc := channel.NewScenario(
			channel.NewGain(rx.SensitivityDBm()+2),
			channel.NewNoise(rx.NoiseFloorDBm()),
		)
		link, err := Open(tx, rx, sc, seed)
		if err != nil {
			t.Fatal(err)
		}
		return link
	}
	a, err := open(3).Run(goldenPayload, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := open(3).Run(goldenPayload, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}

	link := open(11)
	if _, err := link.Send(goldenPayload); err != nil {
		t.Fatal(err)
	}
	if got, err := link.Send(goldenPayload); err != nil || !bytes.Equal(got, goldenPayload) {
		t.Fatalf("second Send = %q, %v", got, err)
	}
	// The waveform cache must not leak across payload changes: a
	// different payload re-modulates and round-trips exactly.
	other := []byte("a-different-payload!")
	if got, err := link.Send(other); err != nil || !bytes.Equal(got, other) {
		t.Fatalf("Send after payload change = %q, %v", got, err)
	}
	if got, err := link.Send(goldenPayload); err != nil || !bytes.Equal(got, goldenPayload) {
		t.Fatalf("Send switching back = %q, %v", got, err)
	}
}

// TestRunPayloadAliasingDemodScratch pins the aliasing contract: handing
// Run the very slice a previous Send returned (which aliases the Link's
// demod scratch) must still measure PER against a stable snapshot of the
// payload — a corrupted decode must not rewrite the comparison baseline
// in place. Backscatter is the sensitive case: no CRC, the slicer always
// returns bytes.
func TestRunPayloadAliasingDemodScratch(t *testing.T) {
	tx, err := New("backscatter")
	if err != nil {
		t.Fatal(err)
	}
	rx, err := New("backscatter")
	if err != nil {
		t.Fatal(err)
	}
	// A clean link first, to get a Send-returned slice aliasing l.pld.
	link, err := Open(tx, rx, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := link.Send(goldenPayload)
	if err != nil {
		t.Fatal(err)
	}
	// Now wreck the channel (noise far above the tag sideband) and run
	// with the aliased slice: PER must be ~1, not the ~0 an in-place
	// overwrite of the baseline would fake.
	link.Rebind(channel.NewScenario(
		channel.NewGain(-40),
		channel.NewNoise(-20),
	), 5)
	st, err := link.Run(pkt, 6)
	if err != nil {
		t.Fatal(err)
	}
	if st.PER < 0.9 {
		t.Errorf("dead-link PER = %.2f with aliased payload, want ~1 (baseline clobbered?)", st.PER)
	}
}

func TestOpenRejectsMismatchedRates(t *testing.T) {
	loraM, err := New("lora")
	if err != nil {
		t.Fatal(err)
	}
	bleM, err := New("ble")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(loraM, bleM, nil, 1); err == nil {
		t.Error("mismatched sample rates accepted")
	}
	if _, err := Open(nil, loraM, nil, 1); err == nil {
		t.Error("nil TX accepted")
	}
	if link, err := Open(loraM, loraM, nil, 1); err != nil || link.scenario == nil {
		t.Errorf("nil scenario not defaulted to identity: %v", err)
	}
}

func TestLinkAccessorsAndRunValidation(t *testing.T) {
	tx, err := New("lora")
	if err != nil {
		t.Fatal(err)
	}
	rx, err := New("lora")
	if err != nil {
		t.Fatal(err)
	}
	link, err := Open(tx, rx, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if link.tx != tx || link.rx != rx {
		t.Error("the link does not hold the bound modems")
	}
	if _, err := link.Run(goldenPayload, 0); err == nil {
		t.Error("Run with zero packets accepted")
	}
	// An unmodulatable payload is the caller's error, not 100% PER: a BLE
	// link rejects payloads over the 31-byte advertising limit up front.
	btx, err := New("ble")
	if err != nil {
		t.Fatal(err)
	}
	brx, err := New("ble")
	if err != nil {
		t.Fatal(err)
	}
	blink, err := Open(btx, brx, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blink.Run(make([]byte, 40), 4); err == nil {
		t.Error("oversize BLE payload reported as channel loss, want modulation error")
	}
}
