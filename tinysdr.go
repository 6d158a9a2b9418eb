// Package tinysdr is a software reproduction of the tinySDR platform
// (Hessar, Najafi, Iyer, Gollakota — "TinySDR: Low-Power SDR Platform for
// Over-the-Air Programmable IoT Testbeds", NSDI 2020): a standalone,
// battery-operated software-defined radio for IoT endpoints with
// over-the-air FPGA/MCU reprogramming.
//
// The package exposes the platform as a set of composable simulation
// models: a Device (radio + FPGA + MCU + power management on a simulated
// clock), a protocol-agnostic Modem registry with the LoRa, BLE and
// backscatter physical layers implemented the way the tinySDR FPGA
// implements them, composable channel scenarios, the OTA programming
// protocol (unicast and §7 broadcast), a campus testbed at any fleet
// size, and a campaign control plane that programs whole fleets
// (RunFleetCampaign, cmd/tinysdr-fleet). Every figure and table of the
// paper's evaluation can be regenerated from these models with
// cmd/tinysdr-eval.
// The Monte-Carlo sweeps behind those figures run on a zero-allocation
// DSP hot path and a deterministic trial-parallel runner; PERFORMANCE.md
// describes both and how to benchmark them.
//
// Those two properties — allocation-free hot paths and seed-determinism —
// are also enforced statically: cmd/tinysdr-vet runs stock go vet plus
// the repo's own analyzers (noallocinto, determinism, goroutinehygiene,
// seedflow) and fails on any diagnostic or unreviewed waiver, gated by
// testdata/vet.golden:
//
//	go run ./cmd/tinysdr-vet ./...
//
// # Quick start
//
// Any registered PHY runs through the same Modem/Link pipeline — swap
// "lora" for "ble" or "backscatter" and nothing else changes:
//
//	tx, _ := tinysdr.NewModem("lora")
//	rx, _ := tinysdr.NewModem("lora")
//	sc := tinysdr.NewChannelScenario(
//		tinysdr.NewGainStage(rx.SensitivityDBm()+6), // -120 dBm for LoRa
//		tinysdr.NewNoiseStage(rx.NoiseFloorDBm()),
//	)
//	link, _ := tinysdr.OpenLink(tx, rx, sc, 42)
//	pkt, _ := link.Send([]byte("hello"))
//	fmt.Printf("%s\n", pkt)
//	stats, _ := link.Run([]byte("hello"), 100)
//	fmt.Printf("PER %.1f%% at %.1f dBm\n", stats.PER*100, stats.RSSIdBm)
//
// # Crowd-sourced spectrum sensing
//
// The sensing subsystem (internal/sense, cmd/tinysdr-sense) turns a fleet
// of endpoints into a distributed spectrum observatory: each node measures
// the band with one Welch estimate per tick, reports a quantized spectrum
// over a compact binary wire format, and an aggregator merges the streams
// into a time×frequency occupancy map that is byte-identical at any worker
// count:
//
//	world := tinysdr.DefaultSenseWorld()
//	res, _ := tinysdr.RunSenseSweep(tinysdr.SenseSweepConfig{
//		World: world, FFTSize: 256,
//		Nodes: 10000, Ticks: 6, Seed: 1, ThresholdDBm: -85,
//	})
//	var m tinysdr.OccupancyMap
//	_ = m.UnmarshalBinary(res.MapBytes)
//	fmt.Printf("occupancy %.3f\n", m.Summarize().Occupancy)
package tinysdr

import (
	"context"
	"net/http"

	"github.com/uwsdr/tinysdr/internal/backscatter"
	"github.com/uwsdr/tinysdr/internal/ble"
	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/core"
	"github.com/uwsdr/tinysdr/internal/fault"
	"github.com/uwsdr/tinysdr/internal/fleet"
	"github.com/uwsdr/tinysdr/internal/fpga"
	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/lora"
	"github.com/uwsdr/tinysdr/internal/lora/concurrent"
	"github.com/uwsdr/tinysdr/internal/ota"
	"github.com/uwsdr/tinysdr/internal/phy"
	"github.com/uwsdr/tinysdr/internal/radio"
	"github.com/uwsdr/tinysdr/internal/sense"
	"github.com/uwsdr/tinysdr/internal/sim/scenario"
	"github.com/uwsdr/tinysdr/internal/testbed"
	"github.com/uwsdr/tinysdr/internal/trace"
)

// Modem is one protocol's physical layer behind the protocol-agnostic PHY
// contract: waveform synthesis (ModulateInto), packet recovery
// (DemodulateFrom) and the link-budget anchors (SensitivityDBm,
// NoiseFloorDBm), all derived from a single radio profile. LoRa, BLE and
// backscatter all satisfy it; a Modem is single-goroutine like the
// demodulator scratch it owns.
type Modem = phy.Modem

// RadioProfile is a receive chain's link-budget identity (name + noise
// figure); a Modem's sensitivity and noise floor both derive from its one
// profile, so a link can never mix noise figures.
type RadioProfile = channel.RadioProfile

// Link binds a TX modem, a ChannelScenario and an RX modem into one
// reproducible pipeline with PER/RSSI metrics: every packet's channel
// randomness is a fixed function of (seed, packet index).
type Link = phy.Link

// LinkStats summarizes a Link measurement run.
type LinkStats = phy.Stats

// RegisteredPHYs lists every protocol in the PHY registry, sorted. Each
// name is valid for NewModem, tinysdr-eval's -phy flag and the scenario
// grammar's interferer=<phy> term.
func RegisteredPHYs() []string { return phy.Names() }

// NewModem builds the named protocol's canonical modem from the registry
// ("lora", "ble", "backscatter", or any later registration).
func NewModem(name string) (Modem, error) { return phy.New(name) }

// NewLoRaModem returns a LoRa modem for explicit parameters, calibrated
// against the facade's LoRa radio profile (SX1276-class, the paper's
// -126 dBm SF8/BW125 anchor).
func NewLoRaModem(p LoRaParams) (Modem, error) { return lora.NewModem(p, loRaRadio) }

// NewBLEModem returns a BLE beacon modem at the given oversampling (4
// matches the radio's 4 MHz interface at 1 Mbps), calibrated against the
// CC2650 reference chain of Fig. 12.
func NewBLEModem(sps int) (Modem, error) { return ble.NewModem(sps, radio.CC2650Profile()) }

// NewBackscatterModem returns a §7 backscatter reader modem for the
// configuration, on the platform's own I/Q chain.
func NewBackscatterModem(c BackscatterConfig) (Modem, error) {
	return backscatter.NewModem(c, radio.AT86RF215Profile())
}

// OpenLink binds the pipeline: TX modem → scenario → RX modem. The modems
// must share a sample rate; a nil scenario is the identity channel; seed
// drives all channel randomness.
func OpenLink(tx, rx Modem, sc *ChannelScenario, seed int64) (*Link, error) {
	return phy.Open(tx, rx, sc, seed)
}

// SampleSource is the replay side of the device seam: a sample device
// serving received baseband packets by index (a stored trace, later
// hardware), mirroring the Pluto/SoapySDR-class source abstractions. A
// replay Link pulls packets from it instead of running the modulator and
// channel.
type SampleSource = phy.Source

// SampleSink is the capture side of the device seam: a tap on the
// channel output that observes — and, modelling the receive ADC, may
// quantize in place — every waveform before demodulation (Link.Tap).
type SampleSink = phy.Sink

// OpenReplayLink binds a SampleSource to an RX modem: demodulation, loss
// accounting and power measurement run exactly as on a live Link, but
// every waveform is literal, so runs are deterministic by construction.
func OpenReplayLink(src SampleSource, rx Modem) (*Link, error) {
	return phy.OpenReplay(src, rx)
}

// TraceMeta identifies what an IQ trace captured: protocol, seed,
// scenario recipe, payload and quantization.
type TraceMeta = trace.Meta

// TracePacket locates one captured packet inside a trace: content hash,
// sample count and the per-packet converter full scale.
type TracePacket = trace.Packet

// Trace is one recorded capture: a manifest plus the content-addressed
// code blobs its packets reference.
type Trace = trace.Trace

// TraceStore is the on-disk trace store: binary manifests plus shared
// FNV-addressed blobs of raw iq codes (see cmd/tinysdr-trace).
type TraceStore = trace.Store

// OpenTraceStore opens (creating if needed) a trace store rooted at dir.
func OpenTraceStore(dir string) (*TraceStore, error) { return trace.OpenStore(dir) }

// RecordTrace captures a live link run — packets indices 0..packets-1
// with a recording ADC tap installed — into a replayable Trace whose
// manifest pins the run's per-packet losses and RSSI.
func RecordTrace(link *Link, meta TraceMeta, packets int) (*Trace, error) {
	return trace.Record(link, meta, packets)
}

// OpenTraceReplay binds a trace to a fresh RX modem of its recorded PHY;
// the returned Link replays the stored waveforms bit-exactly.
func OpenTraceReplay(t *Trace) (*Link, error) { return trace.OpenReplay(t) }

// NewTraceSource returns a SampleSource serving a trace's packets, for
// binding to an RX modem via OpenReplayLink.
func NewTraceSource(t *Trace) (SampleSource, error) { return trace.NewSource(t) }

// ReplayTrace re-demodulates a whole trace across a worker pool and
// returns the measured stats — byte-identical at any worker count.
func ReplayTrace(t *Trace, workers int) (LinkStats, error) { return trace.Replay(t, workers) }

// VerifyTrace replays a trace and diffs per-packet losses, PER and RSSI
// byte-for-byte against the recorded manifest — the cross-version A/B
// gate CI runs on the committed testdata/traces corpus.
func VerifyTrace(t *Trace, workers int) error { return trace.Verify(t, workers) }

// SenseWorld is the shared propagation field of a crowd-sensing sweep:
// emitters, noise floor, capture geometry and node trajectory parameters.
type SenseWorld = sense.World

// SenseEmitter is one transmitter in a SenseWorld.
type SenseEmitter = sense.Emitter

// DefaultSenseWorld returns the 915 MHz campus sensing scenario: three
// emitters at distinct offsets, duties and powers over a 1 MHz band.
func DefaultSenseWorld() SenseWorld { return sense.DefaultWorld() }

// SpectrumSensor is one node's sensing engine: it synthesizes the node's
// view of the world at a (node, tick), runs one Welch estimate over that
// capture, and quantizes the result into a SenseReport. Every measurement
// is a pure function of (seed, node, tick).
type SpectrumSensor = sense.Sensor

// NewSpectrumSensor builds a sensor for a world at the given FFT size.
func NewSpectrumSensor(w *SenseWorld, fftSize int, seed int64) (*SpectrumSensor, error) {
	return sense.NewSensor(w, fftSize, seed)
}

// SenseReport is one node's spectrum measurement at one tick: quarter-dB
// quantized bin powers with a strict, canonical binary wire format.
type SenseReport = sense.Report

// OccupancyMap is the aggregated time×frequency occupancy grid: exact
// integer per-cell moments, so ingest order never changes the bytes.
type OccupancyMap = sense.Map

// NewOccupancyMap returns an empty grid for the geometry and threshold.
func NewOccupancyMap(ticks, bins int, sampleRate, thresholdDBm float64) (*OccupancyMap, error) {
	return sense.NewMap(ticks, bins, sampleRate, thresholdDBm)
}

// SenseAggregator ingests concurrent report streams into an OccupancyMap
// under a bounded in-flight byte budget, rejecting (never blocking) past
// it — see SenseBackpressure.
type SenseAggregator = sense.Aggregator

// NewSenseAggregator returns an aggregator over the map; budgetBytes <= 0
// selects the default admission budget.
func NewSenseAggregator(m *OccupancyMap, budgetBytes int64) (*SenseAggregator, error) {
	return sense.NewAggregator(m, budgetBytes)
}

// NewSenseHandler serves an aggregator's ingest API over HTTP:
// POST /reports, GET /map, GET /map/summary, GET /stats
// (see cmd/tinysdr-sense serve).
func NewSenseHandler(a *SenseAggregator) http.Handler { return sense.NewHandler(a) }

// SenseBackpressure reports whether an ingest error is the aggregator
// shedding load (the HTTP handler's 429); the producer should retry later.
func SenseBackpressure(err error) bool { return sense.IsBackpressure(err) }

// SenseSweepConfig describes one fleet sensing campaign.
type SenseSweepConfig = sense.SweepConfig

// SenseSweepResult is a completed campaign: the marshaled OccupancyMap
// plus report accounting.
type SenseSweepResult = sense.SweepResult

// RunSenseSweep simulates the fleet across a deterministic worker pool;
// the marshaled map is byte-identical for any SenseSweepConfig.Workers.
func RunSenseSweep(cfg SenseSweepConfig) (*SenseSweepResult, error) { return sense.Sweep(cfg) }

// InterfererWaveform builds the canonical interference waveform of any
// registered PHY at a victim link's sample rate — exactly what the
// scenario grammar's interferer=<phy> term injects, for use with
// NewInterfererStage.
func InterfererWaveform(kind string, dstRate float64) (Samples, error) {
	return scenario.DefaultInterfererWaveform(kind, dstRate)
}

// Device is one simulated tinySDR board: AT86RF215 I/Q radio, LFE5U-25F
// FPGA, MSP432 MCU, SX1276 OTA backbone, flash, RF front ends and the
// seven-domain PMU, sharing a simulated clock and an energy ledger.
type Device = core.Device

// Config selects a device's identity.
type Config = core.Config

// New powers up a device (MCU running, radios asleep, FPGA unconfigured).
func New(cfg Config) *Device { return core.New(cfg) }

// Samples is a complex baseband buffer; |x|² is instantaneous power in mW.
type Samples = iq.Samples

// LoRaParams configures the LoRa PHY (spreading factor, bandwidth, coding
// rate, preamble, CRC option). Every packet carries the explicit header.
type LoRaParams = lora.Params

// LoRaPacket is a received LoRa frame.
type LoRaPacket = lora.Packet

// CodingRate is a LoRa coding rate 4/(4+CR).
type CodingRate = lora.CodingRate

// LoRa coding rates.
const (
	CR45 = lora.CR45
	CR46 = lora.CR46
	CR47 = lora.CR47
	CR48 = lora.CR48
)

// DefaultLoRaParams returns the paper's case-study configuration:
// SF8, 125 kHz, CR 4/5, explicit header, CRC, 10-symbol preamble.
func DefaultLoRaParams() LoRaParams { return lora.DefaultParams() }

// loRaRadio is the single receive-chain profile behind NewLoRaModem and
// AdaptSF, so a LoRa modem's sensitivity, its noise floor and the rate
// adaptation margin all derive from one noise figure.
var loRaRadio = radio.SX1276Profile()

// PathLoss is the log-distance propagation model used for deployments.
type PathLoss = channel.LogDistance

// ChannelStage is one impairment in a composed channel scenario (fading,
// CFO and clock drift, co-channel interference, mobility, noise).
type ChannelStage = channel.Stage

// ChannelScenario chains stages into one reproducible link condition:
// Reset(seed, trial) re-derives every random element, so sweeps are
// bit-identical at any worker count (see PERFORMANCE.md).
type ChannelScenario = channel.Scenario

// NewChannelScenario composes stages in signal-path order — typically
// gain (or mobility), fading, CFO, interference, then noise.
func NewChannelScenario(stages ...ChannelStage) *ChannelScenario {
	return channel.NewScenario(stages...)
}

// NewGainStage scales the signal to a fixed mean received power.
func NewGainStage(rssiDBm float64) ChannelStage { return channel.NewGain(rssiDBm) }

// NewFlatFadingStage returns single-tap block fading with linear Rician
// factor k (0 = Rayleigh) — the right model for narrowband IoT links.
func NewFlatFadingStage(kFactor float64) ChannelStage { return channel.NewFlatFading(kFactor) }

// NewCFOStage models oscillator mismatch: a fixed carrier offset, a
// per-trial Gaussian draw of width jitterHz, and a sample-clock error in
// parts per million.
func NewCFOStage(offsetHz, jitterHz, driftPPM, sampleRate float64) ChannelStage {
	return channel.NewCFO(offsetHz, jitterHz, driftPPM, sampleRate)
}

// InterfererStage injects a co-channel transmission from a second live
// modulator; its exported fields tune carrier offset and alignment. To
// shift the interferer off the victim carrier, set both FreqOffsetHz and
// SampleRate — an offset without a rate panics at Reset rather than being
// silently ignored.
type InterfererStage = channel.Interferer

// NewInterfererStage returns an interference stage for a waveform at the
// given received power, with the start offset redrawn per trial.
func NewInterfererStage(kind string, waveform Samples, powerDBm float64, maxOffsetSamples int) *InterfererStage {
	return channel.NewInterferer(kind, waveform, powerDBm, maxOffsetSamples)
}

// NewNoiseStage adds receiver noise at a fixed integrated floor.
func NewNoiseStage(floorDBm float64) ChannelStage { return channel.NewNoise(floorDBm) }

// NewDropoutStage models an RX desync / frame-loss burst: with the given
// per-trial probability a contiguous window of the record is attenuated by
// depthDB (0 selects the 40 dB default) while the noise floor persists —
// the waveform-level counterpart of the fault engine's desync faults
// (scenario grammar term dropout=P[:DEPTHDB]).
func NewDropoutStage(prob, depthDB float64) ChannelStage { return channel.NewDropout(prob, depthDB) }

// ScenarioSpec is a parsed composed-channel description (the grammar of
// tinysdr-eval's -scenario flag); Build turns it into a ChannelScenario
// for a concrete link.
type ScenarioSpec = scenario.Spec

// ScenarioLink describes the victim link a ScenarioSpec is built for.
type ScenarioLink = scenario.Link

// ParseScenario parses the -scenario grammar, e.g.
// "fading=rician:10,cfo=200,drift=20,interferer=lora:-110".
func ParseScenario(s string) (*ScenarioSpec, error) { return scenario.Parse(s) }

// Beacon is a BLE non-connectable advertisement.
type Beacon = ble.Beacon

// Design is a synthesized FPGA configuration with its resource footprint.
type Design = fpga.Design

// LoRaDesign returns the LoRa transceiver FPGA design for a spreading
// factor (modulator + demodulator, ~15% of the part).
func LoRaDesign(sf int) *Design { return fpga.LoRaTRXDesign(sf) }

// BLEDesign returns the BLE beacon generator design (3% of the part).
func BLEDesign() *Design { return fpga.BLEBeaconDesign() }

// SynthBitstream generates the 579 kB configuration image for a design.
func SynthBitstream(d *Design) []byte { return fpga.SynthBitstream(d) }

// SynthMCUFirmware generates a synthetic MCU firmware image.
func SynthMCUFirmware(size int, seed int64) []byte { return fpga.SynthMCUFirmware(size, seed) }

// Update is a firmware image prepared for over-the-air distribution.
type Update = ota.Update

// UpdateTarget selects what an update reprograms.
type UpdateTarget = ota.Target

// Update targets.
const (
	TargetFPGA = ota.TargetFPGA
	TargetMCU  = ota.TargetMCU
)

// BuildUpdate compresses and packetizes a firmware image (30 kB miniLZO
// blocks, 60-byte LoRa packets).
func BuildUpdate(target UpdateTarget, image []byte) (*Update, error) {
	return ota.BuildUpdate(target, image)
}

// OTASession drives one node's firmware update over the LoRa backbone.
type OTASession = ota.Session

// NewOTASession returns a session for a device at the given link RSSI.
func NewOTASession(d *Device, rssiDBm float64, seed int64) *OTASession {
	return ota.NewSession(d.OTA, rssiDBm, seed)
}

// Testbed is the 20-node campus deployment of the paper's evaluation.
type Testbed = testbed.Campus

// TestbedResult is one node's outcome in a fleet update.
type TestbedResult = testbed.ProgramResult

// NewTestbed returns the deterministic campus deployment for a seed.
func NewTestbed(seed int64) *Testbed { return testbed.NewCampus(seed) }

// NewTestbedN returns a deterministic n-node deployment — the campus
// geometry densified to an arbitrary fleet size.
func NewTestbedN(seed int64, n int) *Testbed { return testbed.NewCampusN(seed, n) }

// TestbedCDF summarizes fleet programming durations as an empirical CDF.
func TestbedCDF(results []TestbedResult) []testbed.CDFPoint { return testbed.CDF(results) }

// ConcurrentDecoder demodulates multiple concurrent LoRa configurations
// with different chirp slopes from one sample stream (§6 of the paper).
type ConcurrentDecoder = concurrent.Decoder

// NewConcurrentDecoder builds a decoder for configurations sharing a
// common sample rate.
func NewConcurrentDecoder(sampleRate float64, configs []LoRaParams) (*ConcurrentDecoder, error) {
	return concurrent.NewDecoder(sampleRate, configs)
}

// ConcurrentTransmitter produces symbol streams at the decoder's rate.
type ConcurrentTransmitter = concurrent.Transmitter

// NewConcurrentTransmitter returns a transmitter for one configuration.
func NewConcurrentTransmitter(sampleRate float64, p LoRaParams) (*ConcurrentTransmitter, error) {
	return concurrent.NewTransmitter(sampleRate, p)
}

// AdaptSF selects the fastest spreading factor with the requested link
// margin at an observed RSSI — the §7 rate-adaptation primitive. It uses
// the same radio profile as NewLoRaModem.
func AdaptSF(rssiDBm, bwHz, marginDB float64) int {
	return lora.AdaptSF(rssiDBm, bwHz, loRaRadio.NoiseFigureDB, marginDB)
}

// BackscatterConfig describes a backscatter link (§7 low-power readers).
type BackscatterConfig = backscatter.Config

// DefaultBackscatterConfig is a 100 kHz subcarrier, 10 kbps link at the
// platform's 4 MHz interface.
func DefaultBackscatterConfig() BackscatterConfig { return backscatter.DefaultConfig() }

// BroadcastOTASession programs a whole fleet with the §7 broadcast MAC.
type BroadcastOTASession = ota.BroadcastSession

// BroadcastTarget pairs a device with its downlink quality.
type BroadcastTarget = ota.BroadcastTarget

// NewBroadcastOTASession returns a broadcast session over the fleet.
func NewBroadcastOTASession(targets []BroadcastTarget, seed int64) *BroadcastOTASession {
	return ota.NewBroadcastSession(targets, seed)
}

// FleetSpec describes one fleet programming campaign: size, protocol
// (unicast or broadcast), firmware image, cell partition and seed.
type FleetSpec = fleet.Spec

// FleetResult is a completed campaign with per-node outcomes.
type FleetResult = fleet.Result

// FleetNodeResult is one node's campaign outcome.
type FleetNodeResult = fleet.NodeResult

// Campaign protocols.
const (
	FleetUnicast   = fleet.ModeUnicast
	FleetBroadcast = fleet.ModeBroadcast
)

// RunFleetCampaign programs an arbitrary-size fleet, sharding it into AP
// cells across a deterministic worker pool. Per-node results are
// bit-identical for any FleetSpec.Workers value.
func RunFleetCampaign(spec FleetSpec) (*FleetResult, error) { return fleet.Run(spec) }

// RunFleetCampaignContext is RunFleetCampaign with cancellation: a canceled
// context aborts the campaign between shards and between broadcast repair
// rounds.
func RunFleetCampaignContext(ctx context.Context, spec FleetSpec) (*FleetResult, error) {
	return fleet.RunContext(ctx, spec)
}

// FleetServer schedules campaigns and serves their state over a JSON HTTP
// API (see cmd/tinysdr-fleet).
type FleetServer = fleet.Server

// NewFleetServer returns an empty in-memory campaign scheduler; campaigns
// die with the process. Use OpenFleetServer for the crash-recoverable
// variant.
func NewFleetServer() *FleetServer { return fleet.NewServer() }

// OpenFleetServer returns a crash-recoverable campaign scheduler rooted at
// stateDir: every campaign state transition is write-ahead journaled, and
// reopening the same directory after a crash recovers every campaign —
// interrupted ones resume from their last completed shard to a Result
// byte-identical to an uninterrupted run (see RELIABILITY.md).
func OpenFleetServer(stateDir string) (*FleetServer, error) { return fleet.OpenServer(stateDir) }

// FleetClient is the retrying HTTP client of the campaign API: idempotent
// create via client-supplied campaign IDs, per-request timeouts, and capped
// exponential backoff with seeded jitter, so a driven campaign survives a
// control-plane restart.
type FleetClient = fleet.Client

// NewFleetClient returns a campaign API client for the server at base
// (e.g. "http://127.0.0.1:8080"). seed drives only the retry jitter.
func NewFleetClient(base string, seed int64) *FleetClient { return fleet.NewClient(base, seed) }

// FaultSpec describes deterministic fault intensities for chaos campaigns:
// node crash/reboot, flash write failures and bit-rot, RX desync bursts,
// duty-cycle dropouts and AP outage windows. The zero value injects
// nothing.
type FaultSpec = fault.Spec

// FaultPlan binds a FaultSpec to a seed: every fault is a pure function of
// (seed, node, event index), so chaos campaigns are byte-identical at any
// worker count.
type FaultPlan = fault.Plan

// ParseFaultSpec parses the compact fault grammar of tinysdr-eval's -faults
// and FleetSpec.Faults, e.g. "crash=0.001,flashfail=0.01,desync=0.05:4".
func ParseFaultSpec(s string) (FaultSpec, error) { return fault.Parse(s) }

// NewFaultPlan binds a spec to a seed.
func NewFaultPlan(spec FaultSpec, seed int64) *FaultPlan { return fault.NewPlan(spec, seed) }

// OTAHealConfig tunes the broadcast campaign protocol: fault plan,
// per-node retry budget and a cancellation hook. The zero value is
// runnable.
type OTAHealConfig = ota.HealConfig

// OTAFailureClass is the per-node failure taxonomy of a broadcast
// campaign: unreachable, exhausted-retries, crashed, flash-fault or
// protocol (empty on success).
type OTAFailureClass = ota.FailureClass

// Failure classes.
const (
	OTAFailNone        = ota.FailNone
	OTAFailUnreachable = ota.FailUnreachable
	OTAFailExhausted   = ota.FailExhausted
	OTAFailCrashed     = ota.FailCrashed
	OTAFailFlash       = ota.FailFlash
	OTAFailProtocol    = ota.FailProtocol
)
