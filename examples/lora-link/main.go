// lora-link sweeps a LoRa link across distance with the campus propagation
// model and measures the packet error rate at each range — the workload the
// paper's intro motivates: evaluating protocol configurations at scale
// without building hardware.
//
// Run with: go run ./examples/lora-link
package main

import (
	"fmt"
	"log"

	"github.com/uwsdr/tinysdr"
)

func main() {
	p := tinysdr.DefaultLoRaParams() // SF8, BW125, CR 4/5
	tx, err := tinysdr.NewLoRaModem(p)
	if err != nil {
		log.Fatal(err)
	}
	rx, err := tinysdr.NewLoRaModem(p)
	if err != nil {
		log.Fatal(err)
	}

	model := tinysdr.PathLoss{FreqHz: 915e6, Exponent: 2.9}
	sens := rx.SensitivityDBm()
	fmt.Printf("SF%d/BW%.0fkHz, TX 14 dBm, sensitivity %.0f dBm\n", p.SF, p.BW/1e3, sens)
	fmt.Printf("predicted range: %.0f m\n\n", model.RangeFor(14, 2, 0, sens))

	const packets = 40
	fmt.Printf("%8s  %9s  %6s\n", "distance", "RSSI", "PER")
	for _, dist := range []float64{1000, 3000, 5000, 5800, 6200, 6600, 7000, 7500, 8000} {
		rssi := model.RSSIdBm(14, 2, 0, dist, 0)
		sc := tinysdr.NewChannelScenario(
			tinysdr.NewGainStage(rssi),
			tinysdr.NewNoiseStage(rx.NoiseFloorDBm()),
		)
		link, err := tinysdr.OpenLink(tx, rx, sc, int64(dist))
		if err != nil {
			log.Fatal(err)
		}
		stats, err := link.Run([]byte("ping"), packets)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%7.0fm  %6.1fdBm  %5.0f%%\n", dist, rssi, 100*stats.PER)
	}
}
