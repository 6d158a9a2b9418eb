package core

import (
	"bytes"
	"math"
	"testing"
	"time"

	"github.com/uwsdr/tinysdr/internal/ble"
	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/fpga"
	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/lora"
	"github.com/uwsdr/tinysdr/internal/radio"
)

func TestSleepPowerMatchesPaper(t *testing.T) {
	// §5.1: measured total system sleep power is 30 µW.
	d := New(Config{ID: 1})
	d.Sleep()
	got := d.SystemPowerW()
	if math.Abs(got-30e-6) > 3e-6 {
		t.Errorf("sleep power = %.1f µW, want 30 ±3", got*1e6)
	}
	if !d.asleep {
		t.Error("device not asleep")
	}
}

func TestSleepIsTenThousandTimesBelowSDRs(t *testing.T) {
	// Table 1's headline: 10,000x lower sleep power than existing SDRs
	// (bladeRF 2.0: 717 mW).
	d := New(Config{ID: 1})
	d.Sleep()
	if ratio := 0.717 / d.SystemPowerW(); ratio < 10000 {
		t.Errorf("sleep advantage = %.0fx, want >= 10000x", ratio)
	}
}

func TestWakeTimingTable4(t *testing.T) {
	d := New(Config{ID: 1})
	d.Sleep()
	before := d.Clock.Now()
	wake, err := d.Wake(fpga.LoRaTRXDesign(8))
	if err != nil {
		t.Fatal(err)
	}
	// Table 4: sleep -> radio operation is 22 ms, dominated by FPGA boot.
	if wake < 20*time.Millisecond || wake > 24*time.Millisecond {
		t.Errorf("wake = %v, want ≈22 ms", wake)
	}
	if got := d.Clock.Now() - before; got != wake {
		t.Errorf("clock advanced %v, wake reported %v", got, wake)
	}
	if d.asleep {
		t.Error("still asleep after wake")
	}
}

func TestMeasureOperationTimings(t *testing.T) {
	got, err := MeasureOperationTimings()
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name      string
		got, want time.Duration
		tol       time.Duration
	}{
		{"sleep-to-radio", got.SleepToRadio, 22 * time.Millisecond, 2 * time.Millisecond},
		{"radio-setup", got.RadioSetup, 1200 * time.Microsecond, 0},
		{"tx-to-rx", got.TXToRX, 45 * time.Microsecond, 0},
		{"rx-to-tx", got.RXToTX, 11 * time.Microsecond, 0},
		{"freq-switch", got.FreqSwitch, 220 * time.Microsecond, 0},
	}
	for _, c := range checks {
		diff := c.got - c.want
		if diff < -c.tol || diff > c.tol {
			t.Errorf("%s = %v, want %v (Table 4)", c.name, c.got, c.want)
		}
	}
}

func TestLoRaEndToEndBetweenDevices(t *testing.T) {
	// Two devices over an AWGN link: the full platform path (FPGA modem,
	// radio DAC/ADC, channel) must deliver the payload.
	p := lora.DefaultParams()
	tx := New(Config{ID: 1})
	rx := New(Config{ID: 2})
	if err := tx.ConfigureLoRa(p); err != nil {
		t.Fatal(err)
	}
	if err := rx.ConfigureLoRa(p); err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello from tinysdr")
	air, err := tx.TransmitLoRa(payload, -13) // the paper's Fig. 10 drive level
	if err != nil {
		t.Fatal(err)
	}
	ch := channel.NewAWGN(1, channel.NoiseFloorDBm(p.BW, radio.NoiseFigureDB))
	pkt, err := rx.ReceiveLoRa(ch.ApplyInto(make(iq.Samples, len(air)), air, -100))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkt.Payload, payload) || !pkt.CRCOK {
		t.Fatalf("payload %q crc=%v", pkt.Payload, pkt.CRCOK)
	}
}

func TestLoRaTransmitPowerState(t *testing.T) {
	// §5.2: LoRa TX at 14 dBm draws ≈287 mW system-wide.
	d := New(Config{ID: 1})
	if err := d.ConfigureLoRa(lora.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TransmitLoRa([]byte{1, 2, 3}, 14); err != nil {
		t.Fatal(err)
	}
	got := d.SystemPowerW()
	if got < 0.27 || got > 0.31 {
		t.Errorf("TX system power = %.1f mW, want ≈287", got*1e3)
	}
	// Radio share ≈179 mW.
	if r := d.PMU.Ledger().Power("iq-radio"); r < 0.17 || r > 0.19 {
		t.Errorf("radio share = %.1f mW, want ≈179", r*1e3)
	}
}

func TestLoRaReceivePowerState(t *testing.T) {
	// §5.2: LoRa RX draws ≈186 mW with the radio at 59 mW.
	d := New(Config{ID: 1})
	p := lora.DefaultParams()
	if err := d.ConfigureLoRa(p); err != nil {
		t.Fatal(err)
	}
	tx := New(Config{ID: 2})
	tx.ConfigureLoRa(p)
	air, _ := tx.TransmitLoRa([]byte{1}, 0)
	if _, err := d.ReceiveLoRa(air); err != nil {
		t.Fatal(err)
	}
	got := d.SystemPowerW()
	if got < 0.17 || got > 0.21 {
		t.Errorf("RX system power = %.1f mW, want ≈186", got*1e3)
	}
	if r := d.PMU.Ledger().Power("iq-radio"); math.Abs(r-59e-3) > 1e-3 {
		t.Errorf("radio share = %.1f mW, want 59", r*1e3)
	}
}

func TestBLEBeaconBurstTiming(t *testing.T) {
	d := New(Config{ID: 3})
	if err := d.ConfigureBLE(ble.Beacon{AdvAddress: [6]byte{1, 2, 3, 4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	events, err := d.TransmitBeaconBurst(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	// Fig. 13: inter-beacon gaps within a burst are ≈220 µs (retune) plus
	// the RX/TX turnaround.
	for i := 1; i < 3; i++ {
		gap := events[i].Start - events[i-1].End
		if gap < 220*time.Microsecond || gap > 300*time.Microsecond {
			t.Errorf("gap %d = %v, want ≈220 µs", i, gap)
		}
	}
	// Channels in the advertising order.
	if events[0].Channel.Number != 37 || events[2].Channel.Number != 39 {
		t.Error("wrong channel order")
	}
}

func TestConfigureRequiresAwake(t *testing.T) {
	d := New(Config{ID: 1})
	d.Sleep()
	if err := d.ConfigureLoRa(lora.DefaultParams()); err == nil {
		t.Error("configure while asleep accepted")
	}
	if err := d.ConfigureBLE(ble.Beacon{}); err == nil {
		t.Error("BLE configure while asleep accepted")
	}
}

func TestTransmitRequiresConfiguration(t *testing.T) {
	d := New(Config{ID: 1})
	if _, err := d.TransmitLoRa([]byte{1}, 0); err == nil {
		t.Error("TX without configuration accepted")
	}
	if _, err := d.ReceiveLoRa(nil); err == nil {
		t.Error("RX without configuration accepted")
	}
	if _, err := d.TransmitBeaconBurst(0); err == nil {
		t.Error("beacon without configuration accepted")
	}
}

func TestDutyCycleEnergyBudget(t *testing.T) {
	// One wake/TX/sleep cycle: the sleep phase must dominate total time
	// but contribute almost no energy — the §5.1 argument for 30 µW.
	d := New(Config{ID: 1})
	d.Sleep()
	d.PMU.Ledger().Reset()
	d.Clock.Advance(10 * time.Second) // sleeping
	sleepEnergy := d.PMU.Ledger().Energy()
	if _, err := d.Wake(fpga.LoRaTRXDesign(8)); err != nil {
		t.Fatal(err)
	}
	if err := d.ConfigureLoRa(lora.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TransmitLoRa(make([]byte, 12), 14); err != nil {
		t.Fatal(err)
	}
	total := d.PMU.Ledger().Energy()
	activeEnergy := total - sleepEnergy
	if sleepEnergy > 0.4e-3 {
		t.Errorf("10 s sleep cost %.2f mJ, want ≈0.3", sleepEnergy*1e3)
	}
	if activeEnergy < 10*sleepEnergy {
		t.Errorf("active energy %.2f mJ not dominant over sleep %.2f mJ", activeEnergy*1e3, sleepEnergy*1e3)
	}
}
