package tinysdr

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates its experiment from the simulation models (quick Monte-Carlo
// settings) and reports the headline metrics alongside the usual ns/op, so
// `go test -bench=.` doubles as a full reproduction run. The authoritative
// high-trial numbers come from `go run ./cmd/tinysdr-eval -run all`.

import (
	"testing"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/eval"
	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/lora"
)

func benchExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	e, ok := eval.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := eval.Config{Quick: true, Seed: 1}
	var last *eval.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.StopTimer()
	for _, m := range metrics {
		if v, ok := last.Metrics[m]; ok {
			b.ReportMetric(v, m)
		} else {
			b.Fatalf("metric %q missing from %s", m, id)
		}
	}
}

// BenchmarkTable1PlatformComparison regenerates Table 1 (platform
// comparison); headline: 30 µW sleep, 10,000x below existing SDRs.
func BenchmarkTable1PlatformComparison(b *testing.B) {
	benchExperiment(b, "table1", "tinysdr_sleep_uW", "sleep_advantage_x")
}

// BenchmarkFig2RadioModulePower regenerates Fig. 2 (radio module power):
// 179 mW TX @14 dBm, 59 mW RX.
func BenchmarkFig2RadioModulePower(b *testing.B) {
	benchExperiment(b, "fig2", "tinysdr_tx14_mW", "tinysdr_rx_mW")
}

// BenchmarkTable2IQRadioModules regenerates Table 2 (I/Q radio survey).
func BenchmarkTable2IQRadioModules(b *testing.B) {
	benchExperiment(b, "table2", "at86rf215_rx_mW")
}

// BenchmarkTable3PowerDomains regenerates Table 3 (power domains).
func BenchmarkTable3PowerDomains(b *testing.B) {
	benchExperiment(b, "table3", "domains")
}

// BenchmarkTable4OperationTimings regenerates Table 4 by executing the
// sleep/wake/turnaround transitions on the simulated clock.
func BenchmarkTable4OperationTimings(b *testing.B) {
	benchExperiment(b, "table4", "sleep_to_radio_ms", "tx_to_rx_ms", "freq_switch_ms")
}

// BenchmarkTable5CostBreakdown regenerates Table 5 ($54.53 per unit).
func BenchmarkTable5CostBreakdown(b *testing.B) {
	benchExperiment(b, "table5", "total_usd")
}

// BenchmarkFig8SingleToneSpectrum regenerates Fig. 8: the FPGA NCO's
// single-tone spectrum with no unexpected harmonics.
func BenchmarkFig8SingleToneSpectrum(b *testing.B) {
	benchExperiment(b, "fig8", "sfdr_dB")
}

// BenchmarkFig9TransmitPower regenerates Fig. 9: the end-to-end transmit
// power sweep (231 mW @0 dBm, 283 mW @14 dBm, flat below 0 dBm).
func BenchmarkFig9TransmitPower(b *testing.B) {
	benchExperiment(b, "fig9", "p0dBm_mW", "p14dBm_mW")
}

// BenchmarkFig10LoRaModulatorPER regenerates Fig. 10: modulator PER vs
// RSSI against the SX1276, -126 dBm sensitivity at SF8/BW125.
func BenchmarkFig10LoRaModulatorPER(b *testing.B) {
	benchExperiment(b, "fig10", "sens_TinySDR_bw125_dBm")
}

// BenchmarkFig11LoRaDemodulatorSER regenerates Fig. 11: demodulator
// chirp-symbol error rate vs RSSI.
func BenchmarkFig11LoRaDemodulatorSER(b *testing.B) {
	benchExperiment(b, "fig11", "sens_bw125_dBm")
}

// BenchmarkTable6FPGAUtilization regenerates Table 6: LoRa modem LUT
// usage per spreading factor (976 TX; 2656-2818 RX).
func BenchmarkTable6FPGAUtilization(b *testing.B) {
	benchExperiment(b, "table6", "rx_luts_sf8", "tx_luts_sf8")
}

// BenchmarkFig12BLEBER regenerates Fig. 12: BLE beacon BER vs RSSI,
// -94 dBm sensitivity.
func BenchmarkFig12BLEBER(b *testing.B) {
	benchExperiment(b, "fig12", "sensitivity_dBm")
}

// BenchmarkFig13BLEBeaconTiming regenerates Fig. 13: the three-channel
// advertising burst with 220 µs hop gaps.
func BenchmarkFig13BLEBeaconTiming(b *testing.B) {
	benchExperiment(b, "fig13", "gap1_us", "gap2_us")
}

// BenchmarkFig14OTAProgrammingCDF regenerates Fig. 14: OTA programming
// time CDFs on the 20-node campus (LoRa 150 s, BLE 59 s, MCU 39 s means).
func BenchmarkFig14OTAProgrammingCDF(b *testing.B) {
	benchExperiment(b, "fig14", "mean_s_fpga_lora", "mean_s_fpga_ble", "mean_s_mcu")
}

// BenchmarkFig15aConcurrentEqualPower regenerates Fig. 15a: concurrent
// orthogonal LoRa at equal received power.
func BenchmarkFig15aConcurrentEqualPower(b *testing.B) {
	benchExperiment(b, "fig15a", "loss125_dB", "loss250_dB")
}

// BenchmarkFig15bConcurrentInterference regenerates Fig. 15b: the
// interference-power sweep with its knee near -116 dBm.
func BenchmarkFig15bConcurrentInterference(b *testing.B) {
	benchExperiment(b, "fig15b", "knee_dBm")
}

// BenchmarkSleepPower regenerates the §5.1 sleep-power measurement.
func BenchmarkSleepPower(b *testing.B) {
	benchExperiment(b, "sleep", "sleep_uW")
}

// BenchmarkLoRaPacketPower regenerates the §5.2 LoRa packet power
// measurements (TX 287 mW / radio 179 mW; RX 186 mW / radio 59 mW).
func BenchmarkLoRaPacketPower(b *testing.B) {
	benchExperiment(b, "lorapower", "tx_total_mW", "rx_total_mW")
}

// BenchmarkBLEBatteryLife regenerates the §5.2 battery projection:
// >2 years at one beacon per second on 1000 mAh.
func BenchmarkBLEBatteryLife(b *testing.B) {
	benchExperiment(b, "blebattery", "bypass_years", "fpga_years")
}

// BenchmarkOTACompression regenerates the §5.3 compression results
// (579→99 kB LoRa, 579→40 kB BLE, 78→24 kB MCU; decompress ≤450 ms).
func BenchmarkOTACompression(b *testing.B) {
	benchExperiment(b, "compression", "decompress_ms")
}

// BenchmarkOTAEnergy regenerates the §5.3 energy budget (6144/2342 mJ per
// update; 2100/5600 updates per battery; 71/27 µW at one update per day).
func BenchmarkOTAEnergy(b *testing.B) {
	benchExperiment(b, "otaenergy", "lora_J", "ble_J")
}

// BenchmarkConcurrentResources regenerates the §6 resource/power figures
// for parallel demodulation (17% LUTs, 207 mW).
func BenchmarkConcurrentResources(b *testing.B) {
	benchExperiment(b, "concurrentres", "util_pct", "power_mW")
}

// BenchmarkAblationBroadcast measures the §7 broadcast-MAC extension
// against the paper's sequential fleet programming.
func BenchmarkAblationBroadcast(b *testing.B) {
	benchExperiment(b, "ablation-broadcast", "speedup_x")
}

// BenchmarkAblationPacketSize sweeps the §5.3 packet-size design point.
func BenchmarkAblationPacketSize(b *testing.B) {
	benchExperiment(b, "ablation-packet", "s_60_strong")
}

// BenchmarkAblationCompression measures what miniLZO buys the OTA system.
func BenchmarkAblationCompression(b *testing.B) {
	benchExperiment(b, "ablation-compression", "lzo_s", "stored_s")
}

// BenchmarkAblationBlockSize sweeps the §3.4 compression block size.
func BenchmarkAblationBlockSize(b *testing.B) {
	benchExperiment(b, "ablation-blocksize", "kB_30")
}

// BenchmarkAblationRateAdaptation quantifies the §7 rate-adaptation
// research question on the campus testbed.
func BenchmarkAblationRateAdaptation(b *testing.B) {
	benchExperiment(b, "ablation-adr", "adr_mJ")
}

// BenchmarkCoexistenceSweep regenerates the composed-scenario coexistence
// experiment (PER vs live LoRa/BLE interferer power and carrier offset).
func BenchmarkCoexistenceSweep(b *testing.B) {
	benchExperiment(b, "coexistence", "coex_lora_knee_dBm", "coex_ble_knee_dBm")
}

// BenchmarkMobilitySweep regenerates the mobility experiment: the PER
// cliff where Doppler crosses half a chirp bin (≈80 m/s at SF8/BW125).
func BenchmarkMobilitySweep(b *testing.B) {
	benchExperiment(b, "mobility", "mob_knee_mps", "mob_per_static")
}

// BenchmarkScenarioSymbolDemod pins the composed-scenario hot path: one
// per-trial Reset plus ApplyInto of a full fading + CFO + interferer +
// noise chain and the aligned symbol demod, all in steady-state scratch.
// The contract is 0 allocs/op — the scenario engine may not give back
// what PR 1's zero-allocation DSP path bought.
func BenchmarkScenarioSymbolDemod(b *testing.B) {
	p := lora.DefaultParams()
	demod, err := lora.NewDemodulator(p)
	if err != nil {
		b.Fatal(err)
	}
	mod, err := lora.NewModulator(p)
	if err != nil {
		b.Fatal(err)
	}
	shifts := []int{37, 129, 5, 201}
	sig, err := mod.ModulateSymbols(shifts)
	if err != nil {
		b.Fatal(err)
	}
	interf, err := mod.ModulateSymbols([]int{88, 12})
	if err != nil {
		b.Fatal(err)
	}
	sc := channel.NewScenario(
		channel.NewGain(-110),
		channel.NewFlatFading(10),
		channel.NewCFO(100, 50, 10, p.SampleRate()),
		channel.NewInterferer("lora", interf, -120, 256),
		channel.NewNoise(-116),
	)
	rx := make(iq.Samples, len(sig))
	dst := make([]int, 0, len(shifts))
	sc.Reset(1, 0)
	demod.DemodAlignedSymbolsInto(dst, sc.ApplyInto(rx, sig)) // warm scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Reset(1, i)
		demod.DemodAlignedSymbolsInto(dst, sc.ApplyInto(rx, sig))
	}
}
