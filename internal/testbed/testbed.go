// Package testbed models the paper's 20-device campus deployment (Fig. 7):
// deterministic node geometry, per-link budgets through the log-distance
// channel, and fleet-wide OTA programming that produces the Fig. 14 CDFs.
package testbed

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/flash"
	"github.com/uwsdr/tinysdr/internal/fpga"
	"github.com/uwsdr/tinysdr/internal/mcu"
	"github.com/uwsdr/tinysdr/internal/ota"
	"github.com/uwsdr/tinysdr/internal/par"
	"github.com/uwsdr/tinysdr/internal/power"
	"github.com/uwsdr/tinysdr/internal/radio"
	"github.com/uwsdr/tinysdr/internal/sim"
)

// DefaultNodeCount matches the paper's deployment.
const DefaultNodeCount = 20

// Node is one deployed tinySDR with its position and hardware stack.
type Node struct {
	ID   uint16
	X, Y float64 // meters from the AP

	Clock *sim.Clock
	PMU   *power.PMU
	OTA   *ota.Node
}

// Distance returns the node's range from the AP at the origin.
func (n *Node) Distance() float64 { return math.Hypot(n.X, n.Y) }

// Campus is the deployment: an AP at the origin and nodes spread over the
// campus with a log-distance + shadowing channel.
type Campus struct {
	Nodes []*Node
	Model channel.LogDistance
	// APTXPowerDBm and APAntennaGainDB describe the §5.3 AP: a LoRa
	// transceiver at 14 dBm on a patch antenna.
	APTXPowerDBm    float64
	APAntennaGainDB float64

	seed int64
}

// NewCampus builds the deterministic 20-node deployment of the paper's
// Fig. 7 map.
func NewCampus(seed int64) *Campus {
	return NewCampusN(seed, DefaultNodeCount)
}

// NewCampusN builds a deterministic n-node deployment. Node positions are
// drawn once from the seed: distances span ~150 m to ~1.8 km across campus
// regardless of n, so larger fleets densify the same footprint rather than
// stretching it. n is clamped to [1, 65000] — device addresses are uint16
// and 0xFFFF is the OTA broadcast address.
func NewCampusN(seed int64, n int) *Campus {
	if n < 1 {
		n = 1
	}
	if n > 65000 {
		n = 65000
	}
	c := &Campus{
		Model: channel.LogDistance{
			FreqHz:        915e6,
			Exponent:      2.9,
			ShadowSigmaDB: 4,
		},
		APTXPowerDBm:    14,
		APAntennaGainDB: 6,
		seed:            seed,
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		dist := 150.0
		if n > 1 {
			dist += 1650 * float64(i) / float64(n-1)
		}
		angle := rng.Float64() * 2 * math.Pi
		node := newHardwareNode(uint16(i + 1))
		node.X = dist * math.Cos(angle)
		node.Y = dist * math.Sin(angle)
		c.Nodes = append(c.Nodes, node)
	}
	return c
}

func newHardwareNode(id uint16) *Node {
	clock := sim.NewClock()
	pmu := power.NewPMU(clock)
	return &Node{
		ID:    id,
		Clock: clock,
		PMU:   pmu,
		OTA: ota.NewNode(id, clock,
			radio.NewSX1276(pmu),
			mcu.New(pmu),
			flash.New(),
			fpga.New(pmu)),
	}
}

// RSSI returns the downlink received power at a node.
func (c *Campus) RSSI(n *Node) float64 {
	return c.Model.RSSIdBm(c.APTXPowerDBm, c.APAntennaGainDB, 0,
		n.Distance(), c.seed*1000+int64(n.ID))
}

// LinkScenario returns the composable IQ-level downlink condition for one
// node: a mobility stage solving path loss from the campus geometry (with
// the campus shadowing model redrawn per trial), Doppler for an endpoint
// moving radially at speedMPS, and receiver noise at floorDBm. It is the
// one builder of moving links; the scenario grammar builds static ones.
// Reset it with (seed, trialIndex) before each packet; every worker needs
// its own instance, like a demodulator.
func (c *Campus) LinkScenario(n *Node, speedMPS, sampleRate, floorDBm float64) *channel.Scenario {
	mob := channel.NewMobility(c.Model, c.APTXPowerDBm, c.APAntennaGainDB, 0,
		n.Distance(), speedMPS, sampleRate)
	cfo := channel.NewCFO(channel.DopplerHz(speedMPS, c.Model.FreqHz), 0, 0, sampleRate)
	return channel.NewScenario(mob, cfo, channel.NewNoise(floorDBm))
}

// ProgramResult is one node's outcome in a fleet update.
type ProgramResult struct {
	NodeID   uint16
	Distance float64
	RSSIdBm  float64
	Report   *ota.Report
	Err      error
}

// ProgramAll pushes one update to every node and returns per-node results
// in node order. design accompanies FPGA images.
//
// Each node owns its simulated clock, PMU ledger and per-node session RNG
// (seeded from the campus seed and the node ID), so the fleet runs
// trial-parallel across the machine's cores with results bit-identical to
// a sequential pass — the wall-clock time is what the §3.4 AP's sequential
// schedule reports on each node's own clock, not the host's.
func (c *Campus) ProgramAll(u *ota.Update, design *fpga.Design) []ProgramResult {
	return c.ProgramAllWorkers(u, design, 0)
}

// ProgramAllWorkers is ProgramAll with an explicit worker-pool size;
// workers ≤ 0 means all CPUs (see par.Trials). Results are identical for
// every value.
func (c *Campus) ProgramAllWorkers(u *ota.Update, design *fpga.Design, workers int) []ProgramResult {
	// Session failures are part of a node's result, not a pool error, so
	// the par.Do error path never triggers.
	results, _ := par.Do(workers, len(c.Nodes), func(i int) (ProgramResult, error) {
		n := c.Nodes[i]
		rssi := c.RSSI(n)
		n.PMU.Ledger().Reset()
		sess := ota.NewSession(n.OTA, rssi, c.seed*7919+int64(n.ID))
		rep, err := sess.Program(u, design)
		if err == nil {
			rep.EnergyJ = n.PMU.Ledger().Energy()
		}
		return ProgramResult{
			NodeID: n.ID, Distance: n.Distance(), RSSIdBm: rssi,
			Report: rep, Err: err,
		}, nil
	})
	return results
}

// CDF summarizes programming durations as (duration, fraction) points —
// the Fig. 14 presentation. Failed nodes are excluded.
func CDF(results []ProgramResult) []CDFPoint {
	var durations []time.Duration
	for _, r := range results {
		if r.Err == nil {
			durations = append(durations, r.Report.Duration)
		}
	}
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	out := make([]CDFPoint, len(durations))
	for i, d := range durations {
		out[i] = CDFPoint{Duration: d, Fraction: float64(i+1) / float64(len(durations))}
	}
	return out
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	Duration time.Duration
	Fraction float64
}

// MeanDuration averages the successful programming times.
func MeanDuration(results []ProgramResult) (time.Duration, error) {
	var sum time.Duration
	n := 0
	for _, r := range results {
		if r.Err == nil {
			sum += r.Report.Duration
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("testbed: no node programmed successfully")
	}
	return sum / time.Duration(n), nil
}

// MeanEnergy averages the per-node session energy in joules.
func MeanEnergy(results []ProgramResult) (float64, error) {
	var sum float64
	n := 0
	for _, r := range results {
		if r.Err == nil {
			sum += r.Report.EnergyJ
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("testbed: no node programmed successfully")
	}
	return sum / float64(n), nil
}
