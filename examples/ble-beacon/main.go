// ble-beacon transmits BLE advertisements from a tinySDR device across the
// three advertising channels and verifies them with the discriminator
// receiver, reporting the 220 µs hop timing of Fig. 13.
//
// Run with: go run ./examples/ble-beacon
package main

import (
	"fmt"
	"log"

	"github.com/uwsdr/tinysdr"
)

func main() {
	beacon := tinysdr.Beacon{
		AdvAddress: [6]byte{0xC0, 0xFF, 0xEE, 0x10, 0x20, 0x30},
		AdvData:    []byte{0x02, 0x01, 0x06, 0x05, 0xFF, 0x55, 0x44, 0x33, 0x22},
	}

	// Device-level burst: three channels with the radio's retune gap.
	d := tinysdr.New(tinysdr.Config{ID: 1})
	if err := d.ConfigureBLE(beacon); err != nil {
		log.Fatal(err)
	}
	events, err := d.TransmitBeaconBurst(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("advertising burst:")
	for i, e := range events {
		fmt.Printf("  ch %d (%.0f MHz): %v .. %v", e.Channel.Number, e.Channel.FreqHz/1e6, e.Start, e.End)
		if i > 0 {
			fmt.Printf("  (gap %v)", e.Start-events[i-1].End)
		}
		fmt.Println()
	}
	fmt.Printf("system draw during burst: %.0f mW\n\n", d.SystemPowerW()*1e3)

	// Waveform-level check: a sniffer at -70 dBm, well above its -94 dBm
	// sensitivity, decodes the advertising data through a BLE Link.
	tx, err := tinysdr.NewBLEModem(4)
	if err != nil {
		log.Fatal(err)
	}
	rx, err := tinysdr.NewBLEModem(4)
	if err != nil {
		log.Fatal(err)
	}
	sc := tinysdr.NewChannelScenario(
		tinysdr.NewGainStage(-70),
		tinysdr.NewNoiseStage(rx.NoiseFloorDBm()),
	)
	sniffer, err := tinysdr.OpenLink(tx, rx, sc, 1)
	if err != nil {
		log.Fatal(err)
	}
	got, err := sniffer.Send(beacon.AdvData)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sniffer: %d data bytes ok (% x)\n", len(got), got)
	stats, err := sniffer.Run(beacon.AdvData, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("20 beacons at %.1f dBm measured RSSI: PER %.0f%%\n", stats.RSSIdBm, stats.PER*100)
}
