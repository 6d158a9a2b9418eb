package tinysdr

import (
	"bytes"
	"testing"
)

// TestPublicAPIQuickstart runs a device-to-device LoRa packet through a
// composed channel: the TX board's waveform crosses a gain and noise
// scenario 6 dB above sensitivity and the RX board decodes it.
func TestPublicAPIQuickstart(t *testing.T) {
	tx := New(Config{ID: 1})
	rx := New(Config{ID: 2})
	p := DefaultLoRaParams()
	if err := tx.ConfigureLoRa(p); err != nil {
		t.Fatal(err)
	}
	if err := rx.ConfigureLoRa(p); err != nil {
		t.Fatal(err)
	}
	air, err := tx.TransmitLoRa([]byte("hello"), 14)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := rx.ReceiveLoRa(loRaChannel(t, p, -120, 42).Apply(air))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkt.Payload, []byte("hello")) {
		t.Fatalf("payload = %q", pkt.Payload)
	}
}

// loRaChannel is a gain and noise scenario at rssiDBm over the receiver
// floor of a LoRa modem for p, reset to (seed, 0).
func loRaChannel(t *testing.T, p LoRaParams, rssiDBm float64, seed int64) *ChannelScenario {
	t.Helper()
	m, err := NewLoRaModem(p)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewChannelScenario(NewGainStage(rssiDBm), NewNoiseStage(m.NoiseFloorDBm()))
	sc.Reset(seed, 0)
	return sc
}

func TestPublicAPISensitivityAnchors(t *testing.T) {
	m, err := NewLoRaModem(DefaultLoRaParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.SensitivityDBm(); got < -126.5 || got > -125.5 {
		t.Errorf("SF8/BW125 sensitivity = %v, want -126", got)
	}
}

func TestPublicAPIDesigns(t *testing.T) {
	if got := LoRaDesign(8).UtilizationPct(); got != 15 {
		t.Errorf("LoRa TRX utilization = %d%%, want 15 (4%% TX + 11%% RX)", got)
	}
	if got := BLEDesign().UtilizationPct(); got != 3 {
		t.Errorf("BLE utilization = %d%%", got)
	}
	img := SynthBitstream(BLEDesign())
	if len(img) != 579*1024 {
		t.Errorf("bitstream = %d bytes", len(img))
	}
}

func TestPublicAPIOTAUpdate(t *testing.T) {
	d := New(Config{ID: 9})
	img := SynthMCUFirmware(8*1024, 1)
	u, err := BuildUpdate(TargetMCU, img)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewOTASession(d, -70, 3)
	if _, err := sess.Program(u, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.OTA.VerifyImage(img, TargetMCU); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPITestbed(t *testing.T) {
	tb := NewTestbed(5)
	if len(tb.Nodes) != 20 {
		t.Fatalf("testbed nodes = %d", len(tb.Nodes))
	}
}

func TestPublicAPIConcurrent(t *testing.T) {
	p1 := DefaultLoRaParams()
	p2 := DefaultLoRaParams()
	p2.BW = 250e3
	dec, err := NewConcurrentDecoder(250e3, []LoRaParams{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := NewConcurrentTransmitter(250e3, p1)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := tx.ModulateSymbols([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	got := dec.DemodAligned(sig)
	if len(got) != 2 {
		t.Fatalf("chains = %d", len(got))
	}
	for i, want := range []int{1, 2, 3} {
		if got[0][i] != want {
			t.Errorf("symbol %d = %d", i, got[0][i])
		}
	}
}
