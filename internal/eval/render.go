// Package eval is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§5, §6) from the simulation models, and
// renders them as ASCII tables and plots for the CLI and the benchmark
// suite. Monte-Carlo sweeps fan out across a deterministic trial-parallel
// runner (see runner.go and PERFORMANCE.md at the repository root).
package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// RenderTable renders rows with aligned columns.
func RenderTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	writeRow(rule)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one named trace of an XY plot.
type Series struct {
	Name string
	X, Y []float64
}

// markers distinguish series in ASCII plots.
var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// RenderXY renders series as an ASCII scatter plot with axes and a legend.
func RenderXY(title, xlabel, ylabel string, series []Series, width, height int) string {
	var xmin, xmax, ymin, ymax float64
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if math.IsInf(xmin, 1) {
		return title + ": (no data)\n"
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i := range s.X {
			col := int((s.X[i] - xmin) / (xmax - xmin) * float64(width-1))
			row := int((s.Y[i] - ymin) / (ymax - ymin) * float64(height-1))
			grid[height-1-row][col] = m
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%s (%.4g .. %.4g)\n", ylabel, ymin, ymax)
	for _, line := range grid {
		fmt.Fprintf(&b, "  |%s|\n", line)
	}
	fmt.Fprintf(&b, "  +%s+\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "   %s (%.4g .. %.4g)\n", xlabel, xmin, xmax)
	for si, s := range series {
		fmt.Fprintf(&b, "   %c %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// Interpolate returns the x at which the series crosses the target y,
// scanning in x order (linear interpolation between bracketing points).
// It returns NaN if the series never crosses.
func Interpolate(x, y []float64, target float64) float64 {
	type pt struct{ x, y float64 }
	pts := make([]pt, len(x))
	for i := range x {
		pts[i] = pt{x[i], y[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	for i := 1; i < len(pts); i++ {
		y0, y1 := pts[i-1].y, pts[i].y
		if (y0-target)*(y1-target) <= 0 && y0 != y1 {
			frac := (target - y0) / (y1 - y0)
			return pts[i-1].x + frac*(pts[i].x-pts[i-1].x)
		}
	}
	return math.NaN()
}

// Result is one regenerated experiment.
type Result struct {
	// ID is the experiment identifier, e.g. "fig10" or "table6".
	ID string
	// Title describes the experiment.
	Title string
	// Text is the rendered table/plot output.
	Text string
	// Metrics holds the key scalars (sensitivities, powers, durations)
	// for programmatic comparison against the paper.
	Metrics map[string]float64
}

// Config controls experiment execution.
type Config struct {
	// Quick reduces Monte-Carlo trial counts for CI-speed runs.
	Quick bool
	// Seed drives all experiment randomness.
	Seed int64
	// Workers bounds the trial-parallel runner's pool; 0 means
	// runtime.NumCPU(). Results are identical for every value — each
	// trial's randomness is a fixed function of Seed and the trial's
	// index, never of scheduling (see runner.go).
	Workers int
	// Scenario is the composed-channel spec for the "scenario"
	// experiment, in the internal/sim/scenario grammar (e.g.
	// "fading=rician:10,cfo=200,interferer=lora:-110"). Empty selects a
	// mild default.
	Scenario string
	// PHY selects the victim protocol for the protocol-generic
	// experiments (the CLI's -phy flag): any registered phy.Names()
	// entry. Empty selects "lora".
	PHY string
	// Adaptive configures the sequential-stopping Monte-Carlo mode of
	// the PER/SER/BER sweeps (the CLI's -adaptive / -eps flags). The
	// zero value keeps the historical fixed trial budgets.
	Adaptive Adaptive
	// Faults is the base fault spec for the "chaos" experiment, in the
	// internal/fault grammar (the CLI's -faults flag). Empty selects the
	// experiment's default mix; the sweep scales it across intensities.
	Faults string
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Result, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: SDR platform comparison", Table1},
		{"fig2", "Fig. 2: radio module power consumption per platform", Fig2},
		{"table2", "Table 2: off-the-shelf I/Q radio modules", Table2},
		{"table3", "Table 3: tinySDR power domains", Table3},
		{"table4", "Table 4: operation timings", Table4},
		{"table5", "Table 5: cost breakdown (1000 units)", Table5},
		{"fig8", "Fig. 8: single-tone transmit spectrum", Fig8},
		{"fig9", "Fig. 9: transmit power consumption sweep", Fig9},
		{"fig10", "Fig. 10: LoRa modulator PER vs RSSI", Fig10},
		{"fig11", "Fig. 11: LoRa demodulator symbol error rate vs RSSI", Fig11},
		{"table6", "Table 6: FPGA utilization for the LoRa modem", Table6},
		{"fig12", "Fig. 12: BLE beacon BER vs RSSI", Fig12},
		{"fig13", "Fig. 13: BLE advertising burst timing", Fig13},
		{"fig14", "Fig. 14: OTA programming time CDF (20-node testbed)", Fig14},
		{"fig15a", "Fig. 15a: concurrent LoRa, equal received power", Fig15a},
		{"fig15b", "Fig. 15b: concurrent LoRa, interference power sweep", Fig15b},
		{"sleep", "§5.1: system sleep power", SleepPower},
		{"lorapower", "§5.2: LoRa packet TX/RX power", LoRaPacketPower},
		{"blebattery", "§5.2: BLE beacon battery lifetime", BLEBatteryLife},
		{"compression", "§5.3: firmware compression results", CompressionResults},
		{"otaenergy", "§5.3: OTA update energy and battery budget", OTAEnergy},
		{"concurrentres", "§6: concurrent demodulation resources and power", ConcurrentResources},
		{"coexistence", "coexistence: PER vs live interferer power (every registered PHY) and carrier offset", Coexistence},
		{"mobility", "mobility: PER vs endpoint speed on the campus downlink", Mobility},
		{"scenario", "composed-scenario PER vs RSSI for any -phy victim (-scenario flag)", ScenarioPER},
		{"tracereplay", "trace store record/replay A/B gate for any -phy victim (-scenario flag)", TraceReplay},
		{"sense", "crowd sensing: fleet spectrum sweep into a workers-invariant occupancy map", SenseSweep},
		{"ablation-broadcast", "ablation: sequential vs broadcast fleet programming (§7)", AblationBroadcast},
		{"fleetscale", "fleet-scale campaigns: broadcast vs unicast across N (§7 at scale)", FleetScale},
		{"chaos", "chaos: completion and repair overhead vs fault intensity (-faults flag)", Chaos},
		{"ablation-packet", "ablation: OTA packet-size trade-off (§5.3 design point)", AblationPacketSize},
		{"ablation-compression", "ablation: miniLZO vs raw OTA transfer (§3.4)", AblationCompression},
		{"ablation-blocksize", "ablation: compression block size vs MCU SRAM (§3.4)", AblationBlockSize},
		{"ablation-adr", "ablation: rate adaptation benefit (§7)", AblationRateAdaptation},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
