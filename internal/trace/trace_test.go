package trace

import (
	"bytes"
	"math"
	"testing"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/phy"
)

// goldenPayload mirrors the phy package's canonical round-trip payload.
var goldenPayload = []byte("tinysdr-phy-golden")

// referenceMeta describes the reference capture scenario of the golden
// tests: the same flat-Rician + CFO-jitter + noise channel the phy
// golden round-trip pins, 18 dB above sensitivity.
func referenceMeta(m phy.Modem) Meta {
	return Meta{
		PHY:        m.Name(),
		Seed:       7,
		SampleRate: m.SampleRate(),
		Bits:       13,
		Scenario:   "fading=rician:12,cfojitter=50",
		Payload:    goldenPayload,
	}
}

func referenceScenario(m phy.Modem) *channel.Scenario {
	return channel.NewScenario(
		channel.NewGain(m.SensitivityDBm()+18),
		channel.NewFlatFading(iq.FromDB(12)),
		channel.NewCFO(0, 50, 0, m.SampleRate()),
		channel.NewNoise(m.NoiseFloorDBm()),
	)
}

func recordReference(t *testing.T, name string, packets int) *Trace {
	t.Helper()
	tx, err := phy.New(name)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := phy.New(name)
	if err != nil {
		t.Fatal(err)
	}
	meta := referenceMeta(rx)
	link, err := phy.Open(tx, rx, referenceScenario(rx), meta.Seed)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Record(link, meta, packets)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestGoldenRecordReplayEveryPHY is the tentpole contract: every
// registered PHY records through the reference scenario and replays to
// byte-identical demod output and metrics, at one worker and at several.
func TestGoldenRecordReplayEveryPHY(t *testing.T) {
	for _, name := range phy.Names() {
		t.Run(name, func(t *testing.T) {
			const packets = 8
			tr := recordReference(t, name, packets)
			if len(tr.Manifest.Packets) != packets {
				t.Fatalf("recorded %d packets, want %d", len(tr.Manifest.Packets), packets)
			}

			// Replay metrics must be bit-identical to the recorded run,
			// independent of worker count.
			for _, workers := range []int{1, 3} {
				if err := Verify(tr, workers); err != nil {
					t.Fatalf("verify at %d workers: %v", workers, err)
				}
				st, err := Replay(tr, workers)
				if err != nil {
					t.Fatal(err)
				}
				if st != tr.Manifest.Stats() {
					t.Fatalf("replay stats %+v, recorded %+v", st, tr.Manifest.Stats())
				}
			}

			// Byte-identical demod output: a second live tapped run (same
			// modems, scenario, seed — deterministic by the Link contract)
			// against a replay of the stored trace, packet by packet.
			rxLive, err := phy.New(name)
			if err != nil {
				t.Fatal(err)
			}
			txLive, err := phy.New(name)
			if err != nil {
				t.Fatal(err)
			}
			live, err := phy.Open(txLive, rxLive, referenceScenario(rxLive), tr.Manifest.Seed)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := NewRecorder(referenceMeta(rxLive))
			if err != nil {
				t.Fatal(err)
			}
			if err := live.Tap(rec); err != nil {
				t.Fatal(err)
			}
			rep, err := OpenReplay(tr)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < packets; k++ {
				liveGot, liveErr := live.Send(goldenPayload)
				repGot, repErr := rep.Send(goldenPayload)
				if (liveErr != nil) != (repErr != nil) {
					t.Fatalf("packet %d: live err %v, replay err %v", k, liveErr, repErr)
				}
				if !bytes.Equal(liveGot, repGot) {
					t.Fatalf("packet %d: demod output diverged\n live   %x\n replay %x", k, liveGot, repGot)
				}
			}
		})
	}
}

// TestRecordAutoRangesWeakSignals pins the per-packet AGC: a capture far
// below full scale must not quantize to silence.
func TestRecordAutoRangesWeakSignals(t *testing.T) {
	tr := recordReference(t, "lora", 2)
	for i, p := range tr.Manifest.Packets {
		if p.FullScale >= 1e-3 {
			// -126+18 = -108 dBm signals have amplitudes around 1e-6 —
			// a full scale near 1.0 would mean no auto-ranging happened.
			t.Errorf("packet %d full scale %g, expected weak-signal auto-range", i, p.FullScale)
		}
		codes := tr.Blob(p.Hash)
		allZero := true
		for _, c := range codes {
			if c != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			t.Errorf("packet %d quantized to silence", i)
		}
	}
}

func TestRecorderContracts(t *testing.T) {
	if _, err := NewRecorder(Meta{PHY: "lora", Bits: 0, SampleRate: 1}); err == nil {
		t.Error("bits 0 accepted")
	}
	if _, err := NewRecorder(Meta{PHY: "lora", Bits: 13, SampleRate: 0}); err == nil {
		t.Error("zero sample rate accepted")
	}
	if _, err := NewRecorder(Meta{Bits: 13, SampleRate: 1}); err == nil {
		t.Error("empty phy accepted")
	}
	r, err := NewRecorder(Meta{PHY: "lora", Bits: 13, SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() == "" || r.SampleRate() != 1 {
		t.Error("recorder identity")
	}
	if err := r.WritePacket(3, make(iq.Samples, 4)); err == nil {
		t.Error("out-of-order packet accepted")
	}
	if err := r.WritePacket(0, make(iq.Samples, MaxPacketSamples+1)); err == nil {
		t.Error("oversize packet accepted")
	}
	// All-zero packets take the fallback full scale.
	if err := r.WritePacket(0, make(iq.Samples, 8)); err != nil {
		t.Fatal(err)
	}
	if fs := r.packets[0].FullScale; fs != 1 {
		t.Errorf("all-zero packet full scale %g, want 1", fs)
	}
}

func TestRecordValidation(t *testing.T) {
	tx, _ := phy.New("lora")
	rx, _ := phy.New("lora")
	link, err := phy.Open(tx, rx, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	meta := referenceMeta(rx)
	if _, err := Record(link, meta, 0); err == nil {
		t.Error("zero packets accepted")
	}
	badRate := meta
	badRate.SampleRate = meta.SampleRate * 2
	if _, err := Record(link, badRate, 1); err == nil {
		t.Error("mismatched tap rate accepted")
	}
}

// TestReplaySourceBounds pins the device seam against the live
// path: a replay link refuses to run past the trace.
func TestReplaySourceBounds(t *testing.T) {
	tr := recordReference(t, "ble", 3)
	link, err := OpenReplay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.Run(goldenPayload, 4); err == nil {
		t.Error("run past the trace accepted")
	}
	st, err := link.Run(goldenPayload, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(st.RSSIdBm) != math.Float64bits(tr.Manifest.RSSIdBm) || st.Failures != tr.Manifest.Failures {
		t.Errorf("sequential replay Run %+v, recorded %+v", st, tr.Manifest.Stats())
	}
	// A fourth Send must hard-error (trace exhausted), not count a loss.
	for k := 0; k < 3; k++ {
		if _, err := link.Send(goldenPayload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := link.Send(goldenPayload); err == nil {
		t.Error("send past the trace accepted")
	}
}

func TestVerifyDetectsTamperedManifest(t *testing.T) {
	tr := recordReference(t, "ble", 4)
	flipped := *tr
	flipped.Manifest.Failed = append([]bool(nil), tr.Manifest.Failed...)
	flipped.Manifest.Failed[2] = !flipped.Manifest.Failed[2]
	if flipped.Manifest.Failed[2] {
		flipped.Manifest.Failures++
	} else {
		flipped.Manifest.Failures--
	}
	if err := Verify(&flipped, 1); err == nil {
		t.Error("tampered loss record verified")
	}
	rssi := *tr
	rssi.Manifest.RSSIdBm = tr.Manifest.RSSIdBm + 1e-9
	if err := Verify(&rssi, 1); err == nil {
		t.Error("tampered RSSI verified")
	}
}

// TestSourceValidatesTrace pins validation at every entry point:
// NewSource, OpenReplay, Replay and Verify each reject a trace missing its
// blobs and one whose blob content does not match its hash.
func TestSourceValidatesTrace(t *testing.T) {
	tr := recordReference(t, "ble", 2)
	corrupt := &Trace{Manifest: tr.Manifest, Blobs: make([]Blob, len(tr.Blobs))}
	copy(corrupt.Blobs, tr.Blobs)
	corrupt.Blobs[0] = Blob{Hash: corrupt.Blobs[0].Hash, Codes: append([]byte(nil), corrupt.Blobs[0].Codes...)}
	corrupt.Blobs[0].Codes[0] ^= 0x01
	for _, bad := range []struct {
		name string
		t    *Trace
	}{{"missing blobs", &Trace{Manifest: tr.Manifest}}, {"blob content not matching its hash", corrupt}} {
		if _, err := NewSource(bad.t); err == nil {
			t.Errorf("NewSource: %s accepted", bad.name)
		}
		if _, err := OpenReplay(bad.t); err == nil {
			t.Errorf("OpenReplay: %s accepted", bad.name)
		}
		if _, err := Replay(bad.t, 2); err == nil {
			t.Errorf("Replay: %s accepted", bad.name)
		}
		if err := Verify(bad.t, 1); err == nil {
			t.Errorf("Verify: %s accepted", bad.name)
		}
	}
	src, err := NewSource(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.ReadPacket(-1); err == nil {
		t.Error("negative packet accepted")
	}
	if _, err := src.ReadPacket(2); err == nil {
		t.Error("past-end packet accepted")
	}
}
