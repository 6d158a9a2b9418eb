package eval

// The scenario-engine sweeps: coexistence (PER vs co-channel interferer
// power and carrier offset, with the interference produced by the live
// modulator of every registered PHY) and mobility (PER vs endpoint speed
// through the campus propagation field). Both run protocol-generically on
// the phy registry and Link pipeline, so every trial's waveform is a fixed
// function of (seed, trial index) and the curves are bit-identical at any
// worker count.

import (
	"fmt"
	"hash/fnv"
	"strings"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/lora"
	"github.com/uwsdr/tinysdr/internal/par"
	"github.com/uwsdr/tinysdr/internal/phy"
	"github.com/uwsdr/tinysdr/internal/radio"
	"github.com/uwsdr/tinysdr/internal/sim/scenario"
	"github.com/uwsdr/tinysdr/internal/testbed"
)

// coexPayload is the victim packet used by the scenario sweeps.
var coexPayload = []byte{0xA5, 0x5A, 0x3C}

// victimPHY resolves the -phy selection: empty means the paper's LoRa case
// study.
func victimPHY(cfg Config) string {
	if cfg.PHY == "" {
		return "lora"
	}
	return cfg.PHY
}

// kindSeed derives a stable per-protocol seed offset from the registry
// name, so adding or removing a PHY never reshuffles another protocol's
// curves (an index-based offset would).
func kindSeed(seed int64, kind string) int64 {
	h := fnv.New32a()
	h.Write([]byte(kind))
	return seed + int64(h.Sum32()&0xFFFF)
}

// linkState is the worker-private state of every scenario sweep: one modem
// (playing both roles of the single-goroutine Link pipeline) and the Link
// it keeps across grid points, so the victim waveform is synthesized once
// per worker and only the scenario is rebound per point.
type linkState struct {
	modem phy.Modem
	link  *phy.Link
}

// newLinkState builds per-worker modems for a registered PHY.
func newLinkState(name string) func() (*linkState, error) {
	return func() (*linkState, error) {
		m, err := phy.New(name)
		if err != nil {
			return nil, err
		}
		return &linkState{modem: m}, nil
	}
}

// linkPER binds the worker's Link to a scenario and measures PER over at
// most packets trials, with all channel randomness derived from (seed,
// packet index). The adaptive stopping rule, when enabled, ends the point
// at the first chunk boundary whose Wilson bound is tighter than epsilon;
// because every packet is a fixed function of (seed, index), the adaptive
// measurement is an exact prefix of the full-budget one.
func (s *linkState) linkPER(sc *channel.Scenario, seed int64, packets int, ad Adaptive) (float64, error) {
	if s.link == nil {
		link, err := phy.Open(s.modem, s.modem, sc, seed)
		if err != nil {
			return 0, err
		}
		s.link = link
	} else {
		s.link.Rebind(sc, seed)
	}
	failures, n, err := ad.run(packets, func(k int) (bool, error) {
		return s.link.Probe(coexPayload, k)
	})
	if err != nil {
		return 0, err
	}
	return failRate(failures, n), nil
}

// coexVictim is the victim configuration of the coexistence sweep: the
// paper's SF8 case study at OSR 2, so the front-end FIR is in the loop and
// interferer carrier offsets see a real channel filter. It keeps the LoRa
// modem's calibrated radio profile.
func coexVictim() (*lora.Modem, error) {
	p := lora.DefaultParams()
	p.OSR = 2
	return lora.NewModem(p, radio.SX1276Profile())
}

// kneeAt returns the first x whose y meets or exceeds the threshold, or
// the last x when the curve never crosses (metrics must stay JSON-finite).
func kneeAt(x, y []float64, threshold float64) float64 {
	for i := range x {
		if y[i] >= threshold {
			return x[i]
		}
	}
	return x[len(x)-1]
}

// Coexistence sweeps the victim LoRa link against live co-channel
// interference from every registered PHY: PER vs interferer power per
// protocol, plus PER vs the LoRa interferer's carrier offset — the
// power-control and guard-band questions of §6 asked of the composed
// scenario engine. A newly registered PHY joins the sweep with no changes
// here.
func Coexistence(cfg Config) (*Result, error) {
	packets := 60
	if cfg.Quick {
		packets = 16
	}
	victim, err := coexVictim()
	if err != nil {
		return nil, err
	}
	sig, err := victim.ModulateInto(nil, coexPayload)
	if err != nil {
		return nil, err
	}
	floor := victim.NoiseFloorDBm()
	rssi := victim.SensitivityDBm() + 8
	rate := victim.SampleRate()

	// The interference sources are real modulator output (the same
	// canonical waveforms the -scenario CLI injects), resampled to the
	// victim rate once and shared read-only across workers.
	kinds := phy.Names()
	waves := map[string]iq.Samples{}
	for _, kind := range kinds {
		if waves[kind], err = scenario.DefaultInterfererWaveform(kind, rate); err != nil {
			return nil, err
		}
	}

	// One trial per sweep point: the trial builds its own scenario (the
	// interferer power differs per point) and resets it per packet from
	// (seed, point, packet) alone.
	buildScenario := func(wave iq.Samples, kind string, powerDBm, freqOffHz float64) *channel.Scenario {
		it := channel.NewInterferer(kind, wave, powerDBm, max(len(sig)-len(wave), 1))
		it.FreqOffsetHz = freqOffHz
		it.SampleRate = rate
		return channel.NewScenario(
			channel.NewGain(rssi),
			channel.NewFlatFading(iq.FromDB(12)),
			channel.NewCFO(0, 100, 10, rate),
			it,
			channel.NewNoise(floor),
		)
	}
	newCoexState := func() (*linkState, error) {
		m, err := coexVictim()
		if err != nil {
			return nil, err
		}
		return &linkState{modem: m}, nil
	}

	powers := sweep(-132, -102, 3)
	var series []Series
	metrics := map[string]float64{}
	for _, kind := range kinds {
		wave := waves[kind]
		kind := kind
		pers, err := par.Trials(cfg.Workers, len(powers), newCoexState,
			func(s *linkState, i int) (float64, error) {
				sc := buildScenario(wave, kind, powers[i], 0)
				return s.linkPER(sc, TrialSeed(kindSeed(cfg.Seed, kind), i), packets, cfg.Adaptive)
			})
		if err != nil {
			return nil, err
		}
		series = append(series, Series{
			Name: fmt.Sprintf("%s interferer (PER vs power)", kind),
			X:    powers, Y: percent(pers)})
		// The interference-free baseline is estimated from the three
		// weakest points so one Monte-Carlo outlier cannot fake a knee.
		base := (pers[0] + pers[1] + pers[2]) / 3
		metrics["coex_"+kind+"_base_per"] = base
		metrics["coex_"+kind+"_knee_dBm"] = kneeAt(powers, pers, max(2*base, base+0.15))
		metrics["coex_"+kind+"_p50_dBm"] = kneeAt(powers, pers, 0.5)
	}

	// Carrier-offset sweep: the LoRa interferer held 8 dB over the victim
	// budget — a power that cripples the link co-channel — walked off the
	// victim carrier. Anchoring to the budget (not an absolute power)
	// keeps the sweep's relative geometry stable across radio profiles.
	offsets := sweep(0, 75e3, 12.5e3)
	offPower := rssi + 8
	offPers, err := par.Trials(cfg.Workers, len(offsets), newCoexState,
		func(s *linkState, i int) (float64, error) {
			sc := buildScenario(waves["lora"], "lora", offPower, offsets[i])
			return s.linkPER(sc, TrialSeed(cfg.Seed+977, i), packets, cfg.Adaptive)
		})
	if err != nil {
		return nil, err
	}
	offKHz := make([]float64, len(offsets))
	for i, o := range offsets {
		offKHz[i] = o / 1e3
	}
	series = append(series, Series{
		Name: fmt.Sprintf("lora interferer @ %d dBm (PER vs carrier offset, kHz)", int(offPower)),
		X:    offKHz, Y: percent(offPers)})
	metrics["coex_offset_cochannel_per"] = offPers[0]
	metrics["coex_offset_max_per"] = offPers[len(offPers)-1]
	metrics["coex_offset_escape_kHz"] = kneeAndBack(offKHz, offPers)

	knees := make([]string, len(kinds))
	for i, kind := range kinds {
		knees[i] = fmt.Sprintf("%s-on-LoRa %.0f dBm", kind, metrics["coex_"+kind+"_knee_dBm"])
	}
	text := RenderXY(
		fmt.Sprintf("Coexistence: SF8/BW125 victim at %.0f dBm under live interference from every registered PHY (%s)",
			rssi, "gain→fading→cfo→interferer→noise"),
		"interferer power (dBm) / carrier offset (kHz)", "PER (%)", series, 64, 16)
	text += fmt.Sprintf("\nknee: %s; offset sweep PER: %.0f%% co-channel, %.0f%% at %.1f kHz (14-tap front end)\n",
		strings.Join(knees, ", "),
		metrics["coex_offset_cochannel_per"]*100, metrics["coex_offset_max_per"]*100,
		offKHz[len(offKHz)-1])
	return &Result{ID: "coexistence", Title: "Coexistence interference sweeps", Text: text, Metrics: metrics}, nil
}

// kneeAndBack returns the first x where the curve falls to 10% or below —
// the offset at which the interferer has left the victim channel — or the
// last x if it never recovers.
func kneeAndBack(x, y []float64) float64 {
	for i := range x {
		if y[i] <= 0.10 {
			return x[i]
		}
	}
	return x[len(x)-1]
}

// Mobility sweeps PER against the endpoint's radial speed on the campus
// testbed link: the scenario composes per-packet path-loss trajectories
// (with the campus shadowing model) and the matching Doppler shift, driving
// the LoRa modem through the phy.Link pipeline. The knee lands where
// Doppler crosses half a chirp bin — the §7 rate-adaptation question
// extended to moving endpoints.
func Mobility(cfg Config) (*Result, error) {
	packets := 40
	if cfg.Quick {
		packets = 12
	}
	probe, err := phy.New("lora")
	if err != nil {
		return nil, err
	}
	p := lora.DefaultParams()
	floor := probe.NoiseFloorDBm()
	campus := testbed.NewCampus(cfg.Seed)
	node := campus.Nodes[len(campus.Nodes)/2]

	speeds := sweep(0, 160, 16)
	pers, err := par.Trials(cfg.Workers, len(speeds), newLinkState("lora"),
		func(s *linkState, i int) (float64, error) {
			sc := campus.LinkScenario(node, speeds[i], s.modem.SampleRate(), floor)
			return s.linkPER(sc, TrialSeed(cfg.Seed+1543, i), packets, cfg.Adaptive)
		})
	if err != nil {
		return nil, err
	}

	binHz := p.BW / float64(p.NumChips())
	series := []Series{{
		Name: fmt.Sprintf("node %d at %.0f m (PER vs speed)", node.ID, node.Distance()),
		X:    speeds, Y: percent(pers)}}
	metrics := map[string]float64{
		"mob_per_static":   pers[0],
		"mob_knee_mps":     kneeAt(speeds, pers, 0.5),
		"mob_halfbin_mps":  binHz / 2 * channel.SpeedOfLight / campus.Model.FreqHz,
		"mob_node_dist_m":  node.Distance(),
		"mob_doppler_knee": channel.DopplerHz(kneeAt(speeds, pers, 0.5), campus.Model.FreqHz),
	}
	text := RenderXY("Mobility: PER vs radial speed on the campus downlink (mobility→cfo→noise)",
		"speed (m/s)", "PER (%)", series, 64, 14)
	text += fmt.Sprintf("\nstatic PER %.0f%%; link collapses at ≈%.0f m/s — Doppler %.0f Hz vs half-bin %.0f Hz\n",
		pers[0]*100, metrics["mob_knee_mps"], -metrics["mob_doppler_knee"], binHz/2)
	return &Result{ID: "mobility", Title: "Mobility speed sweep", Text: text, Metrics: metrics}, nil
}

// ScenarioPER measures PER vs RSSI for an arbitrary composed scenario
// (Config.Scenario, the CLI's -scenario flag) against the clean-AWGN
// baseline, quantifying the composed impairments' sensitivity penalty. The
// victim protocol is Config.PHY (the CLI's -phy flag): any registered PHY
// runs through the same Link pipeline with its own sensitivity and noise
// anchors.
func ScenarioPER(cfg Config) (*Result, error) {
	packets := 60
	if cfg.Quick {
		packets = 16
	}
	specStr := cfg.Scenario
	if specStr == "" {
		specStr = "fading=rician:10,cfo=200,drift=20"
	}
	spec, err := scenario.Parse(specStr)
	if err != nil {
		return nil, err
	}
	name := victimPHY(cfg)
	probe, err := phy.New(name)
	if err != nil {
		return nil, err
	}
	floor := probe.NoiseFloorDBm()
	sens := probe.SensitivityDBm()
	rate := probe.SampleRate()
	margins := sweep(-4, 14, 2)
	rssis := make([]float64, len(margins))
	for i, m := range margins {
		rssis[i] = sens + m
	}

	curves := map[string][]float64{}
	for ci, c := range []struct {
		name string
		spec string
	}{{"scenario", specStr}, {"clean", ""}} {
		cs, err := scenario.Parse(c.spec)
		if err != nil {
			return nil, err
		}
		// Synthesize the interference source once per curve; trials share
		// it read-only and only rebuild the cheap stage chain.
		var interfWave iq.Samples
		if cs.Interferer != "" {
			if interfWave, err = scenario.DefaultInterfererWaveform(cs.Interferer, rate); err != nil {
				return nil, err
			}
		}
		pers, err := par.Trials(cfg.Workers, len(rssis), newLinkState(name),
			func(s *linkState, i int) (float64, error) {
				sc, err := cs.Build(scenario.Link{
					SampleRate: rate, RSSIdBm: rssis[i], FloorDBm: floor,
					InterfererWave: interfWave,
				})
				if err != nil {
					return 0, err
				}
				return s.linkPER(sc, TrialSeed(cfg.Seed+int64(ci)*131, i), packets, cfg.Adaptive)
			})
		if err != nil {
			return nil, err
		}
		curves[c.name] = pers
	}

	series := []Series{
		{Name: fmt.Sprintf("composed %s: %s", name, spec.String()), X: rssis, Y: percent(curves["scenario"])},
		{Name: "clean AWGN", X: rssis, Y: percent(curves["clean"])},
	}
	metrics := map[string]float64{
		"scn_p50_dBm":   kneeBelow(rssis, curves["scenario"], 0.5),
		"clean_p50_dBm": kneeBelow(rssis, curves["clean"], 0.5),
		"scn_sens_dBm":  sens,
	}
	metrics["scn_penalty_dB"] = metrics["scn_p50_dBm"] - metrics["clean_p50_dBm"]
	text := RenderXY(fmt.Sprintf("Composed scenario PER vs RSSI — %s victim (%s)", name, spec.String()),
		"RSSI (dBm)", "PER (%)", series, 64, 16)
	text += fmt.Sprintf("\n50%%-PER point: composed %.1f dBm vs clean %.1f dBm — penalty %.1f dB\n",
		metrics["scn_p50_dBm"], metrics["clean_p50_dBm"], metrics["scn_penalty_dB"])
	return &Result{ID: "scenario", Title: "Composed scenario PER", Text: text, Metrics: metrics}, nil
}

// kneeBelow returns the last x (scanning upward) at which the curve is
// still at or above the threshold — the highest RSSI that still fails —
// or the first x when the curve starts below it.
func kneeBelow(x, y []float64, threshold float64) float64 {
	out := x[0]
	for i := range x {
		if y[i] >= threshold {
			out = x[i]
		}
	}
	return out
}
