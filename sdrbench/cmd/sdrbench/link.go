package main

// The link workload is the inner loop of the eval sweeps: phy.Link.Probe
// in eval.Adaptive-sized chunks over RSSI grids that span each victim's
// PER cliff.
//
// Why this workload: every paper figure and scenario sweep reduces to it,
// and it is the only workload that runs the channel stages and the
// modulators. The traced run splits a main op into the channel stages
// (~63%: CFO ~31%, noise ~21%, fading ~5%, gain ~4%, interferer ~2%), the
// demodulators (~32%: LoRa ~17%, BLE ~14%) and BLE modulation (~5%; the
// LoRa payload repeats, so its waveform cache hits). With one client and
// nothing contending, halving LoRa demod can lift main_per_s by at most
// ~9%.
//
// Why not call eval experiments: an experiment cannot be split into
// layers from outside, and its adaptive stopping makes its work depend on
// its results.
//
// The side op runs trace.Verify at one worker on a LoRa and a BLE trace
// that went through a trace.Store in set-up: demodulation ~73%, IQ decode
// (trace.read) ~12%, and the rest Verify's per-call modem construction.
// It bypasses the channel and the modulators, so a change to the channel
// alone should leave side_per_s flat.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/eval"
	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/par"
	"github.com/uwsdr/tinysdr/internal/phy"
	"github.com/uwsdr/tinysdr/internal/sim/scenario"
	"github.com/uwsdr/tinysdr/internal/trace"
)

const (
	// linkScenario is each victim's channel: Rician fading, a CFO with
	// jitter and drift, a live LoRa interferer (the paper's §6
	// concurrent-LoRa question) and receiver noise. The interferer sits
	// linkInterfererDB below the victim's sensitivity.
	linkScenario     = "fading=rician:10,cfo=200,cfojitter=100,drift=20,interferer=lora:%g"
	linkInterfererDB = -6
	// linkDigestOps is how many main ops, one chunk each, the digest
	// covers. Ops never repeat a chunk: op i probes packets 8i..8i+7 at
	// every grid point, so a run's latencies sample many channel draws
	// and its median does not hinge on a few chunks of one seed.
	linkDigestOps = 8
	// linkTraceBits is the capture ADC resolution (tinysdr-trace's default).
	linkTraceBits = 13
)

// A victimDef is one swept link: a registered PHY, its RSSI grid relative
// to sensitivity, and its recorded trace.
type victimDef struct {
	phy string
	// fresh sends a new payload in every packet, so the modulator runs
	// every time; otherwise one payload repeats, as in eval, and the
	// Link's TX-waveform cache hits.
	fresh bool
	// gridDB spans the PER cliff (~98% to ~20% loss for LoRa under the
	// interferer, ~80% to 0% for BLE).
	gridDB []float64
	// traceDB and tracePackets place and size the recorded trace.
	traceDB      float64
	tracePackets int
}

var linkVictims = []victimDef{
	{phy: "lora", gridDB: []float64{-3, 0, 3, 6, 9, 12}, traceDB: 6, tracePackets: 64},
	{phy: "ble", fresh: true, gridDB: []float64{-7, -5, -3, -1, 1, 3}, traceDB: -3, tracePackets: 128},
}

type gridPoint struct {
	sc   *channel.Scenario
	seed int64
}

// A victim is one swept link and the state of its call-by-call replica of
// phy.Link.Probe, which the traced run uses to give each layer a span.
type victim struct {
	name    string
	fresh   bool
	modem   phy.Modem
	link    *phy.Link
	grid    []gridPoint
	paySeed int64
	payload []byte

	// Replica state, kept apart from the Link's own cache.
	wave       iq.Samples
	wavePld    []byte
	waveOK     bool
	rx         iq.Samples
	got        []byte
	stageSpans []string

	trace                       *trace.Trace // round-tripped through the store
	modSpan, demodSpan, okRatio string
}

type linkBench struct {
	dir     string
	victims []*victim
	flags   []bool // the op's loss flags, victim-major
	check   []bool // the same packets through the other path
}

func setupLink(seed int64, tr *tracer) (workload, error) {
	dir, err := os.MkdirTemp("", "sdrbench-link-")
	if err != nil {
		return nil, err
	}
	l := &linkBench{dir: dir}
	if err := l.build(seed, tr); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *linkBench) build(seed int64, tr *tracer) error {
	store, err := trace.OpenStore(filepath.Join(l.dir, "traces"))
	if err != nil {
		return err
	}
	var raw int
	for vi, def := range linkVictims {
		vseed := par.SplitSeed(seed, int64(vi))
		m, err := phy.New(def.phy)
		if err != nil {
			return err
		}
		v := &victim{
			name: def.phy, fresh: def.fresh, modem: m,
			paySeed:   par.SplitSeed(vseed, 1<<20),
			payload:   make([]byte, 8),
			modSpan:   def.phy + ".modulate",
			demodSpan: def.phy + ".demod",
			okRatio:   def.phy + ".ok_ratio",
		}
		binary.LittleEndian.PutUint64(v.payload, uint64(v.paySeed))
		wave, err := scenario.DefaultInterfererWaveform("lora", m.SampleRate())
		if err != nil {
			return err
		}
		spec, err := scenario.Parse(fmt.Sprintf(linkScenario, m.SensitivityDBm()+linkInterfererDB))
		if err != nil {
			return err
		}
		build := func(offDB float64) (*channel.Scenario, error) {
			return spec.Build(scenario.Link{
				SampleRate:     m.SampleRate(),
				RSSIdBm:        m.SensitivityDBm() + offDB,
				FloorDBm:       m.NoiseFloorDBm(),
				InterfererWave: wave,
			})
		}
		for g, off := range def.gridDB {
			sc, err := build(off)
			if err != nil {
				return err
			}
			v.grid = append(v.grid, gridPoint{sc: sc, seed: par.SplitSeed(vseed, int64(g))})
		}
		for _, st := range v.grid[0].sc.Stages() {
			kind, _, _ := strings.Cut(st.Name(), "(")
			v.stageSpans = append(v.stageSpans, "channel."+kind)
		}
		if v.link, err = phy.Open(m, m, v.grid[0].sc, v.grid[0].seed); err != nil {
			return err
		}

		// The trace: recorded on its own Link at one point of the cliff,
		// stored, and read back; the side op verifies what came back.
		recSc, err := build(def.traceDB)
		if err != nil {
			return err
		}
		recSeed := par.SplitSeed(vseed, 1<<21)
		recLink, err := phy.Open(m, m, recSc, recSeed)
		if err != nil {
			return err
		}
		meta := trace.Meta{
			PHY: def.phy, Seed: recSeed, SampleRate: m.SampleRate(),
			Bits: linkTraceBits, Scenario: spec.String(), Payload: bytes.Clone(v.payload),
		}
		s := tr.begin("trace.record")
		rec, err := trace.Record(recLink, meta, def.tracePackets)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("trace.put")
		err = store.Put(def.phy, rec)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("trace.get")
		v.trace, err = store.Get(def.phy)
		tr.end(s)
		if err != nil {
			return err
		}
		for _, p := range rec.Manifest.Packets {
			raw += 4 * p.Samples
		}
		l.victims = append(l.victims, v)
	}
	stored, err := dirBytes(store.Dir())
	if err != nil {
		return err
	}
	tr.count("trace.stored_ratio", float64(stored), float64(raw))

	// Warm-up: one op of each kind, checked like any other. The replica
	// then forgets its waveform, as a fresh Link would.
	if _, err := l.mainOp(0, &op{}); err != nil {
		return fmt.Errorf("warm-up main op: %w", err)
	}
	if _, err := l.sideOp(0, &op{}); err != nil {
		return fmt.Errorf("warm-up side op: %w", err)
	}
	for _, v := range l.victims {
		v.waveOK = false
	}
	return nil
}

// packet returns the payload of packet k at grid point g: one repeated
// payload, or a fresh one per packet derived from the seed.
func (v *victim) packet(g, k int) []byte {
	if v.fresh {
		binary.LittleEndian.PutUint64(v.payload, uint64(par.SplitSeed(par.SplitSeed(v.paySeed, int64(g)), int64(k))))
	}
	return v.payload
}

// probe replays phy.Link.Probe for packet k at a grid point call by call:
// modulate on a cache miss, reset and apply each channel stage, then
// demodulate and compare.
func (v *victim) probe(tr *tracer, p *gridPoint, payload []byte, k int) (lost bool, err error) {
	if !v.waveOK || !bytes.Equal(payload, v.wavePld) {
		v.waveOK = false
		s := tr.begin(v.modSpan)
		v.wave, err = v.modem.ModulateInto(v.wave, payload)
		tr.end(s)
		if err != nil {
			return false, err
		}
		v.wavePld = append(v.wavePld[:0], payload...)
		v.waveOK = true
	}
	if cap(v.rx) < len(v.wave) {
		v.rx = make(iq.Samples, len(v.wave))
	}
	rx := v.rx[:len(v.wave)]
	s := tr.begin("channel.reset")
	p.sc.Reset(p.seed, k)
	tr.end(s)
	src := v.wave
	for i, st := range p.sc.Stages() {
		s := tr.begin(v.stageSpans[i])
		st.ApplyInto(rx, src)
		tr.end(s)
		src = rx
	}
	s = tr.begin(v.demodSpan)
	got, derr := v.modem.DemodulateFrom(v.got, rx)
	tr.end(s)
	if derr == nil {
		v.got = got
	}
	lost = derr != nil || !bytes.Equal(got, v.wavePld)
	tr.hit(v.okRatio, !lost)
	return lost, nil
}

// mainOp probes chunk i, packets 8i..8i+7, at every grid point of both
// sweeps: through phy.Link.Probe untraced, through the replica traced.
// Afterwards the same packets go through the other path, and the two must
// agree on every loss flag.
func (l *linkBench) mainOp(i int, o *op) (int, error) {
	first := i * eval.DefaultChunk
	o.start()
	flags, err := l.chunk(o.tr == nil, o.tr, first, l.flags[:0])
	o.stop()
	l.flags = flags
	if err != nil {
		return 0, err
	}
	if l.check, err = l.chunk(o.tr != nil, nil, first, l.check[:0]); err != nil {
		return 0, err
	}
	if n := firstDiff(l.flags, l.check); n >= 0 {
		return 0, fmt.Errorf("chunk %d packet %d: traced=%v lost=%v, other path lost=%v",
			i, n, o.tr != nil, l.flags[n], l.check[n])
	}
	for _, lost := range l.flags {
		o.out = append(o.out, boolByte(lost))
	}
	return len(l.flags), nil
}

// chunk probes packets first..first+7 at every grid point of both sweeps
// and appends their loss flags: through phy.Link.Probe when link is set,
// through the call-by-call replica otherwise.
func (l *linkBench) chunk(link bool, tr *tracer, first int, flags []bool) ([]bool, error) {
	for _, v := range l.victims {
		for g := range v.grid {
			p := &v.grid[g]
			if link {
				v.link.Rebind(p.sc, p.seed)
			}
			for k := first; k < first+eval.DefaultChunk; k++ {
				var lost bool
				var err error
				if link {
					lost, err = v.link.Probe(v.packet(g, k), k)
				} else {
					lost, err = v.probe(tr, p, v.packet(g, k), k)
				}
				if err != nil {
					return flags, err
				}
				flags = append(flags, lost)
			}
		}
	}
	return flags, nil
}

// sideOp verifies both stored traces at one worker: trace.Verify
// untraced, its call-by-call replica traced.
func (l *linkBench) sideOp(_ int, o *op) (int, error) {
	o.start()
	var err error
	for _, v := range l.victims {
		if o.tr == nil {
			err = trace.Verify(v.trace, 1)
		} else {
			err = v.verify(o.tr)
		}
		if err != nil {
			break
		}
	}
	o.stop()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, v := range l.victims {
		m := &v.trace.Manifest
		for _, lost := range m.Failed {
			o.out = append(o.out, boolByte(lost))
		}
		o.out = binary.LittleEndian.AppendUint64(o.out, math.Float64bits(m.RSSIdBm))
		n += len(m.Packets)
	}
	return n, nil
}

// verify replays trace.Verify call by call: read and decode each stored
// packet, measure its power, demodulate, and hold every loss flag, the
// failure count and the RSSI bits to the recorded manifest.
func (v *victim) verify(tr *tracer) error {
	m := &v.trace.Manifest
	src, err := trace.NewSource(v.trace)
	if err != nil {
		return err
	}
	rx, err := phy.New(m.PHY)
	if err != nil {
		return err
	}
	var mw float64
	var got []byte
	failures := 0
	for k := range m.Packets {
		s := tr.begin("trace.read")
		sig, err := src.ReadPacket(k)
		tr.end(s)
		if err != nil {
			return err
		}
		mw += sig.Power()
		s = tr.begin(v.demodSpan)
		out, derr := rx.DemodulateFrom(got, sig)
		tr.end(s)
		if derr == nil {
			got = out
		}
		lost := derr != nil || !bytes.Equal(out, m.Payload)
		tr.hit(v.okRatio, !lost)
		if lost != m.Failed[k] {
			return fmt.Errorf("%s trace packet %d replayed lost=%v, recorded lost=%v", v.name, k, lost, m.Failed[k])
		}
		if lost {
			failures++
		}
	}
	if failures != m.Failures {
		return fmt.Errorf("%s trace replay counted %d failures, recorded %d", v.name, failures, m.Failures)
	}
	if got := iq.MilliwattsToDBm(mw / float64(len(m.Packets))); math.Float64bits(got) != math.Float64bits(m.RSSIdBm) {
		return fmt.Errorf("%s trace replay RSSI %v, recorded %v", v.name, got, m.RSSIdBm)
	}
	return nil
}

func (l *linkBench) cycles() (int, int) { return linkDigestOps, 1 }

func (l *linkBench) describe() string {
	var b strings.Builder
	for i, v := range l.victims {
		if i > 0 {
			b.WriteString(", ")
		}
		st := v.trace.Manifest.Stats()
		fmt.Fprintf(&b, "%s trace %d packets PER %.3f", v.name, st.Packets, st.PER)
	}
	return b.String()
}

func (l *linkBench) close() error { return os.RemoveAll(l.dir) }

// firstDiff returns the first index where two equally long flag lists
// differ, or -1.
func firstDiff(a, b []bool) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
