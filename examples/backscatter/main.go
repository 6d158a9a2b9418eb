// backscatter demonstrates the §7 low-power reader direction: a tinySDR
// acts as both exciter (its single-tone generator) and reader (its I/Q
// receiver) for a backscatter tag, with no custom reader hardware.
//
// Run with: go run ./examples/backscatter
package main

import (
	"fmt"
	"log"

	"github.com/uwsdr/tinysdr"
)

func main() {
	cfg := tinysdr.DefaultBackscatterConfig()
	fmt.Printf("exciter tone + %v kHz subcarrier tag at %v kbps\n\n",
		cfg.SubcarrierHz/1e3, cfg.BitRate/1e3)

	// The modem's waveform is what the reader hears: the exciter's
	// self-interference leak at DC plus the tag's subcarrier reflection,
	// 23 dB weaker.
	tx, err := tinysdr.NewBackscatterModem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rx, err := tinysdr.NewBackscatterModem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rssi := rx.SensitivityDBm() + 6
	sc := tinysdr.NewChannelScenario(
		tinysdr.NewGainStage(rssi),
		tinysdr.NewNoiseStage(rx.NoiseFloorDBm()),
	)
	link, err := tinysdr.OpenLink(tx, rx, sc, 1)
	if err != nil {
		log.Fatal(err)
	}

	reading := []byte("tag:soil=31%")
	got, err := link.Send(reading)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reader decoded %q at %.1f dBm (sensitivity %.1f dBm)\n", got, rssi, rx.SensitivityDBm())

	const packets = 40
	stats, err := link.Run(reading, packets)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d readings: PER %.0f%% at %.1f dBm measured RSSI\n", packets, stats.PER*100, stats.RSSIdBm)
	fmt.Println("the subcarrier-orthogonal detector needs no interference canceller")
}
