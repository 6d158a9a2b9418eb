package eval

import (
	"fmt"
	"time"

	"github.com/uwsdr/tinysdr/internal/fpga"
	"github.com/uwsdr/tinysdr/internal/mcu"
	"github.com/uwsdr/tinysdr/internal/ota"
	"github.com/uwsdr/tinysdr/internal/power"
	"github.com/uwsdr/tinysdr/internal/testbed"
)

// updateImages builds the three §5.3 firmware images.
func updateImages(seed int64) (loraImg, bleImg, mcuImg []byte, loraDes, bleDes *fpga.Design) {
	loraDes = fpga.LoRaTRXDesign(8)
	bleDes = fpga.BLEBeaconDesign()
	return fpga.SynthBitstream(loraDes), fpga.SynthBitstream(bleDes),
		fpga.SynthMCUFirmware(78*1024, seed), loraDes, bleDes
}

// CompressionResults reproduces the §5.3 firmware compression table.
func CompressionResults(cfg Config) (*Result, error) {
	loraImg, bleImg, mcuImg, _, _ := updateImages(cfg.Seed)
	entries := []struct {
		name    string
		img     []byte
		paperKB float64
	}{
		{"FPGA bitstream: LoRa modem", loraImg, 99},
		{"FPGA bitstream: BLE beacon", bleImg, 40},
		{"MCU firmware (LoRa/BLE)", mcuImg, 24},
	}
	var rows [][]string
	metrics := map[string]float64{}
	for _, e := range entries {
		u, err := ota.BuildUpdate(ota.TargetFPGA, e.img)
		if err != nil {
			return nil, err
		}
		gotKB := float64(u.CompressedSize()) / 1024
		rows = append(rows, []string{
			e.name,
			fmt.Sprintf("%.0f kB", float64(len(e.img))/1024),
			fmt.Sprintf("%.1f kB", gotKB),
			fmt.Sprintf("%.0f kB", e.paperKB),
		})
		metrics[e.name] = gotKB
	}
	decompress := mcu.DecompressTime(fpga.BitstreamSize)
	rows = append(rows, []string{"Full-bitstream decompression (MCU CPU)", "-",
		fmt.Sprintf("%.0f ms", ms(decompress)), "<= 450 ms"})
	metrics["decompress_ms"] = ms(decompress)
	text := RenderTable([]string{"Image", "Raw", "Compressed (measured)", "Paper"}, rows)
	return &Result{ID: "compression", Title: "Firmware compression", Text: text, Metrics: metrics}, nil
}

// Fig14 programs the 20-node campus testbed over the air with all three
// §5.3 updates and reports the programming-time CDFs.
func Fig14(cfg Config) (*Result, error) {
	loraImg, bleImg, mcuImg, loraDes, bleDes := updateImages(cfg.Seed)
	jobs := []struct {
		name   string
		key    string
		target ota.Target
		img    []byte
		design *fpga.Design
		paperS float64
	}{
		{"FPGA: LoRa", "fpga_lora", ota.TargetFPGA, loraImg, loraDes, 150},
		{"FPGA: BLE", "fpga_ble", ota.TargetFPGA, bleImg, bleDes, 59},
		{"MCU: LoRa/BLE", "mcu", ota.TargetMCU, mcuImg, nil, 39},
	}
	var series []Series
	var rows [][]string
	metrics := map[string]float64{}
	for _, job := range jobs {
		campus := testbed.NewCampus(cfg.Seed)
		u, err := ota.BuildUpdate(job.target, job.img)
		if err != nil {
			return nil, err
		}
		// Fleet programming fans out across nodes; per-node clocks and
		// RNG substreams keep the CDF identical for any worker count.
		results := campus.ProgramAllWorkers(u, job.design, cfg.Workers)
		failed := 0
		for _, r := range results {
			if r.Err != nil {
				failed++
			}
		}
		cdf := testbed.CDF(results)
		var s Series
		s.Name = job.name
		for _, p := range cdf {
			s.X = append(s.X, p.Duration.Minutes())
			s.Y = append(s.Y, p.Fraction)
		}
		series = append(series, s)
		mean, err := testbed.MeanDuration(results)
		if err != nil {
			return nil, err
		}
		meanE, err := testbed.MeanEnergy(results)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			job.name,
			fmt.Sprintf("%.0f s", mean.Seconds()),
			fmt.Sprintf("%.0f s", job.paperS),
			fmt.Sprintf("%.2f J", meanE),
			fmt.Sprintf("%d/%d", len(results)-failed, len(results)),
		})
		metrics["mean_s_"+job.key] = mean.Seconds()
		metrics["mean_J_"+job.key] = meanE
	}
	text := RenderXY("OTA programming time CDF (20-node campus testbed)",
		"duration (minutes)", "CDF", series, 64, 14)
	text += "\n" + RenderTable([]string{"Update", "Mean (measured)", "Mean (paper)", "Energy", "Programmed"}, rows)
	return &Result{ID: "fig14", Title: "OTA programming CDF", Text: text, Metrics: metrics}, nil
}

// OTAEnergy reproduces the §5.3 energy budget: per-update energy, number of
// updates per battery, and the average power at one update per day.
func OTAEnergy(cfg Config) (*Result, error) {
	loraImg, bleImg, _, loraDes, bleDes := updateImages(cfg.Seed)
	batt := power.DefaultBattery()
	day := 24 * time.Hour

	entries := []struct {
		name         string
		key          string
		img          []byte
		design       *fpga.Design
		paperJ       float64
		paperUpdates float64
		paperAvgUW   float64
	}{
		{"LoRa FPGA update", "lora", loraImg, loraDes, 6.144, 2100, 71},
		{"BLE FPGA update", "ble", bleImg, bleDes, 2.342, 5600, 27},
	}
	var rows [][]string
	metrics := map[string]float64{}
	for _, e := range entries {
		campus := testbed.NewCampus(cfg.Seed + 7)
		node := campus.Nodes[4] // a mid-range node
		u, err := ota.BuildUpdate(ota.TargetFPGA, e.img)
		if err != nil {
			return nil, err
		}
		node.PMU.Ledger().Reset()
		sess := ota.NewSession(node.OTA, campus.RSSI(node), cfg.Seed+99)
		if _, err := sess.Program(u, e.design); err != nil {
			return nil, err
		}
		energy := node.PMU.Ledger().Energy()
		updates := batt.Operations(energy)
		avgW := energy / day.Seconds()
		rows = append(rows, []string{
			e.name,
			fmt.Sprintf("%.2f J (paper %.3f)", energy, e.paperJ),
			fmt.Sprintf("%d (paper %.0f)", updates, e.paperUpdates),
			fmt.Sprintf("%.0f µW (paper %.0f)", avgW*1e6, e.paperAvgUW),
		})
		metrics[e.key+"_J"] = energy
		metrics[e.key+"_updates"] = float64(updates)
		metrics[e.key+"_avg_uW"] = avgW * 1e6
	}
	text := RenderTable([]string{"Update", "Energy", "Updates per 1000 mAh", "Avg power @1/day"}, rows)
	return &Result{ID: "otaenergy", Title: "OTA energy budget", Text: text, Metrics: metrics}, nil
}
