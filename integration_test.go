package tinysdr

// Full-platform integration test: one simulated tinySDR endpoint lives the
// lifecycle the paper's testbed vision describes — it is reprogrammed over
// the air between protocols, beacons as a BLE device, then sends a LoRa
// sensor uplink over the sample-level PHY, duty-cycling through 30 µW
// sleep between activities.

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func TestPlatformLifecycle(t *testing.T) {
	dev := New(Config{ID: 77})
	gateway := New(Config{ID: 1})

	// --- Phase 1: OTA-program the device with the BLE beacon bitstream.
	bleDesign := BLEDesign()
	bleImage := SynthBitstream(bleDesign)
	update, err := BuildUpdate(TargetFPGA, bleImage)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewOTASession(dev, -85, 1)
	rep, err := sess.Program(update, bleDesign)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration < 45*time.Second {
		t.Fatalf("BLE OTA update suspiciously fast: %v", rep.Duration)
	}
	if dev.FPGA.Design().Name != bleDesign.Name {
		t.Fatal("device not running the BLE design")
	}

	// --- Phase 2: the device advertises; a sniffer decodes the beacon.
	beacon := Beacon{
		AdvAddress: [6]byte{0xAA, 0xBB, 0xCC, 0x01, 0x02, 0x03},
		AdvData:    []byte{0x02, 0x01, 0x06},
	}
	if err := dev.ConfigureBLE(beacon); err != nil {
		t.Fatal(err)
	}
	events, err := dev.TransmitBeaconBurst(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("beacon burst produced %d events", len(events))
	}
	bleTX, err := NewBLEModem(4)
	if err != nil {
		t.Fatal(err)
	}
	bleRX, err := NewBLEModem(4)
	if err != nil {
		t.Fatal(err)
	}
	sniffer, err := OpenLink(bleTX, bleRX, NewChannelScenario(
		NewGainStage(-75), NewNoiseStage(bleRX.NoiseFloorDBm()),
	), 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sniffer.Send(beacon.AdvData)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, beacon.AdvData) {
		t.Fatalf("sniffer decoded advertising data % x", got)
	}

	// --- Phase 3: deep sleep between roles; the 30 µW state.
	dev.Sleep()
	if p := dev.SystemPowerW(); math.Abs(p-30e-6) > 4e-6 {
		t.Fatalf("sleep power %.1f µW", p*1e6)
	}
	dev.Clock.Advance(time.Hour) // a night on the testbed

	// The wake timer fires for the OTA listen window: reboot from the
	// staged BLE image (22 ms, Table 4).
	if _, err := dev.Wake(bleDesign); err != nil {
		t.Fatal(err)
	}

	// --- Phase 4: OTA-reprogram to the LoRa modem over the air.
	loraDesign := LoRaDesign(8)
	loraImage := SynthBitstream(loraDesign)
	update2, err := BuildUpdate(TargetFPGA, loraImage)
	if err != nil {
		t.Fatal(err)
	}
	sess2 := NewOTASession(dev, -85, 3)
	if _, err := sess2.Program(update2, loraDesign); err != nil {
		t.Fatal(err)
	}
	if dev.FPGA.Design().Name != loraDesign.Name {
		t.Fatal("device not running the LoRa design after second update")
	}

	// --- Phase 5: a sensor uplink over the sample-level PHY.
	p := DefaultLoRaParams()
	if err := dev.ConfigureLoRa(p); err != nil {
		t.Fatal(err)
	}
	if err := gateway.ConfigureLoRa(p); err != nil {
		t.Fatal(err)
	}
	reading := []byte("temp=21.4C")
	air, err := dev.TransmitLoRa(reading, 14)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := gateway.ReceiveLoRa(loRaChannel(t, p, -118, 4).Apply(air))
	if err != nil {
		t.Fatal(err)
	}
	if !pkt.CRCOK {
		t.Fatal("uplink CRC failed")
	}
	if !bytes.Equal(pkt.Payload, reading) {
		t.Fatalf("uplink payload %q", pkt.Payload)
	}

	// --- Phase 6: the energy story holds across the whole lifecycle.
	total := dev.PMU.Ledger().Energy()
	if total <= 0 {
		t.Fatal("no energy accounted")
	}
	// The hour of sleep must be a tiny share despite being ~97% of time.
	dev.PMU.Ledger().Reset()
	dev.Sleep()
	dev.Clock.Advance(time.Hour)
	sleepHour := dev.PMU.Ledger().Energy()
	if sleepHour > 0.15 {
		t.Errorf("an hour of sleep cost %.3f J; duty-cycling broken", sleepHour)
	}
}
