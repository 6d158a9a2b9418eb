package lora

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// Golden-vector conformance: small fixed-seed IQ captures committed under
// testdata/ pin both directions of the modem. The TX test re-modulates and
// compares byte-exact against the capture, so any DSP change that bends
// the waveform fails loudly; the RX test demodulates the committed capture
// and requires the exact expected payload, so receiver refactors cannot
// silently trade away correctness.
//
// Regenerate after an *intentional* waveform change with:
//
//	go test ./internal/lora -run TestGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite golden IQ captures from the current modulator")

// goldenBits and goldenFullScale fix the capture quantization: the
// radio's 13-bit converter model at a 2.0 full scale (unit-amplitude
// chirps sit at half scale, clear of clipping).
const (
	goldenBits      = 13
	goldenFullScale = 2.0
)

// goldenPayload is the packet every LoRa capture carries.
var goldenPayload = []byte{0xA5, 0x5A, 0x3C}

// goldenCases are the committed captures: the paper's SF8/BW125 case study
// on the critically-sampled path, and an SF7/BW250 OSR-2 capture that
// keeps the front-end FIR in the loop.
var goldenCases = []struct {
	name string
	p    Params
}{
	{"golden_sf8_bw125_osr1", Params{SF: 8, BW: 125e3, CR: CR45, PreambleLen: 10,
		SyncWord: 0x12, CRC: true, OSR: 1}},
	{"golden_sf7_bw250_osr2", Params{SF: 7, BW: 250e3, CR: CR47, PreambleLen: 8,
		SyncWord: 0x34, CRC: true, OSR: 2}},
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".iq")
}

func TestGoldenModulatorWaveforms(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			mod, err := NewModulator(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			sig, err := mod.Modulate(goldenPayload)
			if err != nil {
				t.Fatal(err)
			}
			got := iq.EncodeInt16(sig, goldenBits, goldenFullScale)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(tc.name), got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d samples, %d bytes)", goldenPath(tc.name), len(sig), len(got))
				return
			}
			want, err := os.ReadFile(goldenPath(tc.name))
			if err != nil {
				t.Fatalf("missing golden capture (regenerate with -update-golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				diff := 0
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						diff = i
						break
					}
				}
				t.Fatalf("modulator waveform diverges from golden capture at byte %d (of %d/%d); "+
					"if the change is intentional, regenerate with -update-golden", diff, len(got), len(want))
			}
		})
	}
}

func TestGoldenCaptureDemodulatesExactly(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := os.ReadFile(goldenPath(tc.name))
			if err != nil {
				t.Fatalf("missing golden capture (regenerate with -update-golden): %v", err)
			}
			sig, err := iq.DecodeInt16(raw, goldenBits, goldenFullScale)
			if err != nil {
				t.Fatal(err)
			}
			demod, err := NewDemodulator(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			pkt, err := demod.Receive(sig)
			if err != nil {
				t.Fatalf("golden capture no longer decodes: %v", err)
			}
			if !pkt.CRCOK || !pkt.FECOK {
				t.Errorf("golden capture decodes with CRCOK=%v FECOK=%v", pkt.CRCOK, pkt.FECOK)
			}
			if !bytes.Equal(pkt.Payload, goldenPayload) {
				t.Errorf("golden payload = %x, want %x", pkt.Payload, goldenPayload)
			}
			if pkt.Header.PayloadLen != len(goldenPayload) || pkt.Header.CR != tc.p.CR {
				t.Errorf("golden header = %+v", pkt.Header)
			}
		})
	}
}

// TestGoldenCaptureSymbolExact pins the aligned-demod path bit-for-bit:
// the raw chirp symbols recovered from the payload section of the capture
// must equal the modulator's encoded symbol stream exactly.
func TestGoldenCaptureSymbolExact(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := os.ReadFile(goldenPath(tc.name))
			if err != nil {
				t.Fatal(err)
			}
			sig, err := iq.DecodeInt16(raw, goldenBits, goldenFullScale)
			if err != nil {
				t.Fatal(err)
			}
			mod, err := NewModulator(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mod.Symbols(goldenPayload)
			if err != nil {
				t.Fatal(err)
			}
			demod, err := NewDemodulator(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			// Payload symbols start after preamble + 2 sync + 2.25 SFD.
			sLen := tc.p.chirpGen().SymbolLen()
			start := (tc.p.PreambleLen+2)*sLen + sLen*9/4
			got := demod.DemodAlignedSymbols(sig[start:])
			if len(got) < len(want) {
				t.Fatalf("capture holds %d payload symbols, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("payload symbol %d = %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}
