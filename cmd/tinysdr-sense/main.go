// Command tinysdr-sense drives the crowd-sourced spectrum sensing
// subsystem (internal/sense): simulated fleets of mobile nodes measure
// the band with one Welch estimate per tick, report quantized spectra
// over a compact binary wire format, and an aggregator merges the
// streams into a time×frequency occupancy map.
//
// Usage:
//
//	tinysdr-sense sweep -nodes 10000 -ticks 6 -workers 8 -out map.tsom
//	tinysdr-sense show -in map.tsom
//	tinysdr-sense serve -addr :8080
//	tinysdr-sense roundtrip -nodes 40 -ticks 3
//	tinysdr-sense bench -reports 200000 -min-rps 50000
//
// sweep runs the fleet simulation (byte-identical map at any -workers;
// -verify re-runs at one worker and diffs). serve exposes the ingest
// HTTP API. roundtrip drives reports through a live HTTP server and
// requires the served map to equal local aggregation bit for bit — the
// CI smoke test. bench measures single-process ingest throughput and
// exits non-zero below -min-rps.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/uwsdr/tinysdr/internal/eval"
	"github.com/uwsdr/tinysdr/internal/httpjson"
	"github.com/uwsdr/tinysdr/internal/sense"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "roundtrip":
		err = cmdRoundtrip(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tinysdr-sense:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: tinysdr-sense <sweep|show|serve|roundtrip|bench> [flags]
  sweep      simulate a sensing fleet into an occupancy map (-verify: 1-worker diff)
  show       render a stored occupancy map
  serve      serve the report ingest HTTP API
  roundtrip  reports through a live HTTP server vs local aggregation (CI smoke)
  bench      single-process ingest throughput (-min-rps gates)
run 'tinysdr-sense <cmd> -h' for per-command flags`)
}

// sweepFlags are the fleet-shape knobs shared by sweep and roundtrip.
func sweepFlags(fs *flag.FlagSet) *sense.SweepConfig {
	cfg := &sense.SweepConfig{World: sense.DefaultWorld()}
	fs.IntVar(&cfg.Nodes, "nodes", 1000, "fleet size")
	fs.IntVar(&cfg.Ticks, "ticks", 4, "measurement intervals")
	fs.IntVar(&cfg.FFTSize, "fft", 256, "spectral bins (power of two)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "sweep seed; same seed, same map bits")
	fs.IntVar(&cfg.Workers, "workers", 0, "worker pool (0 = all CPUs); map identical for any value")
	fs.Float64Var(&cfg.ThresholdDBm, "threshold", -85, "occupancy threshold in dBm")
	fs.Float64Var(&cfg.World.NodeStepM, "node-step", 1.5, "radial spacing between node start positions in m")
	return cfg
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	cfg := sweepFlags(fs)
	out := fs.String("out", "", "write the marshaled occupancy map here")
	verify := fs.Bool("verify", false, "re-run at 1 worker and require identical map bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	start := time.Now()
	res, err := sense.Sweep(*cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if *verify {
		one := *cfg
		one.Workers = 1
		serial, err := sense.Sweep(one)
		if err != nil {
			return err
		}
		if !bytes.Equal(res.MapBytes, serial.MapBytes) {
			return fmt.Errorf("occupancy map differs between -workers %d and 1", cfg.Workers)
		}
		fmt.Println("verify: map byte-identical at 1 worker")
	}
	var m sense.Map
	if err := m.UnmarshalBinary(res.MapBytes); err != nil {
		return err
	}
	printMap(&m)
	fmt.Printf("%d reports (%.2f MiB) in %.2fs, %.0f reports/s end to end\n",
		res.Reports, float64(res.WireBytes)/(1<<20), elapsed.Seconds(),
		float64(res.Reports)/elapsed.Seconds())
	if *out != "" {
		if err := os.WriteFile(*out, res.MapBytes, 0o644); err != nil {
			return err
		}
		fmt.Printf("map written to %s (%d bytes)\n", *out, len(res.MapBytes))
	}
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	in := fs.String("in", "", "occupancy map file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("show needs -in")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	var m sense.Map
	if err := m.UnmarshalBinary(data); err != nil {
		return err
	}
	printMap(&m)
	return nil
}

// printMap renders the summary table plus a per-tick occupancy strip —
// enough to see emitters and duty cycles at a glance in a terminal.
func printMap(m *sense.Map) {
	sum := m.Summarize()
	rows := [][]string{
		{"grid", fmt.Sprintf("%d ticks × %d bins (%g Hz band)", m.Ticks, m.Bins, m.SampleRate)},
		{"reports", fmt.Sprintf("%d", sum.Reports)},
		{"threshold", fmt.Sprintf("%g dBm", sum.ThresholdDBm)},
		{"mean occupancy", fmt.Sprintf("%.3f", sum.Occupancy)},
		{"peak power", fmt.Sprintf("%.2f dBm", sum.PeakDBm)},
	}
	fmt.Print(eval.RenderTable([]string{"Occupancy map", ""}, rows))
	// One strip per tick, bins bucketed into 64 columns, '0'..'9' by
	// occupancy decile.
	const cols = 64
	for tick := 0; tick < m.Ticks; tick++ {
		strip := make([]byte, cols)
		for c := 0; c < cols; c++ {
			lo, hi := c*m.Bins/cols, (c+1)*m.Bins/cols
			if hi == lo {
				hi = lo + 1
			}
			var occ float64
			for b := lo; b < hi && b < m.Bins; b++ {
				occ += m.Cell(tick, b).Occupancy()
			}
			occ /= float64(hi - lo)
			d := int(occ * 9.999)
			strip[c] = byte('0' + d)
		}
		fmt.Printf("tick %3d |%s|\n", tick, strip)
	}
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	ticks := fs.Int("ticks", 16, "map time rows")
	bins := fs.Int("bins", 256, "map frequency bins")
	rate := fs.Float64("rate", 1e6, "sensed bandwidth in Hz")
	threshold := fs.Float64("threshold", -85, "occupancy threshold in dBm")
	budget := fs.Int64("budget", 0, "in-flight ingest budget in bytes (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := sense.NewMap(*ticks, *bins, *rate, *threshold)
	if err != nil {
		return err
	}
	agg, err := sense.NewAggregator(m, *budget)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tinysdr-sense: serving ingest API on %s (%d×%d map)\n", *addr, *ticks, *bins)
	return httpjson.NewServer(*addr, sense.NewHandler(agg)).ListenAndServe()
}

func cmdRoundtrip(args []string) error {
	fs := flag.NewFlagSet("roundtrip", flag.ExitOnError)
	cfg := sweepFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// A live server over a loopback listener, and a local reference
	// aggregator fed the same wire bytes.
	srvMap, err := sense.NewMap(cfg.Ticks, cfg.FFTSize, cfg.World.SampleRate, cfg.ThresholdDBm)
	if err != nil {
		return err
	}
	srvAgg, err := sense.NewAggregator(srvMap, 0)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: sense.NewHandler(srvAgg)}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	localMap, err := sense.NewMap(cfg.Ticks, cfg.FFTSize, cfg.World.SampleRate, cfg.ThresholdDBm)
	if err != nil {
		return err
	}
	localAgg, err := sense.NewAggregator(localMap, 0)
	if err != nil {
		return err
	}

	sensor, err := sense.NewSensor(&cfg.World, cfg.FFTSize, cfg.Seed)
	if err != nil {
		return err
	}
	posted := 0
	for node := 0; node < cfg.Nodes; node++ {
		for tick := 0; tick < cfg.Ticks; tick++ {
			wire, err := sensor.Measure(node, tick).MarshalBinary()
			if err != nil {
				return err
			}
			if err := localAgg.IngestWire(wire); err != nil {
				return err
			}
			resp, err := http.Post(base+"/reports", "application/octet-stream", bytes.NewReader(wire))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				return fmt.Errorf("POST /reports: status %d", resp.StatusCode)
			}
			posted++
		}
	}

	resp, err := http.Get(base + "/map")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	served, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	local, err := localAgg.MapBytes()
	if err != nil {
		return err
	}
	if !bytes.Equal(served, local) {
		return fmt.Errorf("served map (%d bytes) differs from local aggregation (%d bytes)", len(served), len(local))
	}
	fmt.Printf("roundtrip: %d reports over HTTP, served map byte-identical to local aggregation (%d bytes)\n",
		posted, len(served))
	return nil
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	reports := fs.Int("reports", 200000, "reports to ingest")
	bins := fs.Int("bins", 256, "bins per report")
	ticks := fs.Int("ticks", 16, "map time rows")
	minRPS := fs.Float64("min-rps", 0, "fail below this ingest rate (0 = report only)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := sense.NewMap(*ticks, *bins, 1e6, -85)
	if err != nil {
		return err
	}
	agg, err := sense.NewAggregator(m, 0)
	if err != nil {
		return err
	}
	// Pre-marshal a report pool so the benchmark times the ingest path
	// (admission, parse, CRC, absorb) and nothing else. The pool cycles
	// codes and ticks so cache behavior resembles live traffic.
	pool := make([][]byte, 64)
	codes := make([]int16, *bins)
	for i := range pool {
		for b := range codes {
			codes[b] = int16(-400 + (i*31+b*7)%256)
		}
		r := sense.Report{Node: uint32(i), Tick: uint32(i % *ticks), SampleRate: 1e6, Codes: codes}
		wire, err := r.MarshalBinary()
		if err != nil {
			return err
		}
		pool[i] = wire
	}

	start := time.Now()
	for i := 0; i < *reports; i++ {
		if err := agg.IngestWire(pool[i%len(pool)]); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	rps := float64(*reports) / elapsed.Seconds()
	mbps := float64(*reports*sense.WireSize(*bins)) / (1 << 20) / elapsed.Seconds()
	fmt.Printf("ingested %d reports (%d bins) in %.3fs: %.0f reports/s, %.1f MiB/s\n",
		*reports, *bins, elapsed.Seconds(), rps, mbps)
	if *minRPS > 0 && rps < *minRPS {
		return fmt.Errorf("ingest rate %.0f reports/s below the %.0f floor", rps, *minRPS)
	}
	return nil
}
