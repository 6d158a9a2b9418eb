package tinysdr

// Tests for the public API: the exported-surface golden check (every
// facade symbol, diffed against testdata/api_surface.golden so breakage
// fails CI loudly), the protocol-agnostic Modem/Link surface, and the
// extension features (§7).

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"go/ast"
	"go/types"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"

	"github.com/uwsdr/tinysdr/internal/lint"
	"github.com/uwsdr/tinysdr/internal/ota"
)

var updateSurface = flag.Bool("update-api-surface", false,
	"rewrite testdata/api_surface.golden from the current exports")

// exportedSurface type-checks the facade package and returns one "kind
// name" line per exported top-level symbol and one "method T.M" line per
// exported method of each exported type, promoted methods included and
// aliases resolved to the types they name, sorted.
func exportedSurface(t *testing.T) []string {
	t.Helper()
	prog, err := lint.Load(".", []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	// Load lists the facade after every module package it imports.
	facade := prog.Packages[len(prog.Packages)-1]
	if facade.Path != "github.com/uwsdr/tinysdr" {
		t.Fatalf("loaded %s last, not the facade", facade.Path)
	}
	scope := facade.Types.Scope()
	var lines []string
	for _, name := range scope.Names() {
		if !ast.IsExported(name) {
			continue
		}
		switch obj := scope.Lookup(name).(type) {
		case *types.Const:
			lines = append(lines, "const "+name)
		case *types.Var:
			lines = append(lines, "var "+name)
		case *types.Func:
			lines = append(lines, "func "+name)
		case *types.TypeName:
			lines = append(lines, "type "+name)
			typ := types.Unalias(obj.Type())
			if !types.IsInterface(typ) {
				typ = types.NewPointer(typ)
			}
			mset := types.NewMethodSet(typ)
			for i := 0; i < mset.Len(); i++ {
				if m := mset.At(i).Obj(); m.Exported() {
					lines = append(lines, "method "+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// TestFacadeAPISurfaceGolden diffs the exported surface against the
// committed golden list: an accidental removal, rename or addition fails
// here before any caller breaks. Regenerate intentionally with
//
//	go test . -run TestFacadeAPISurfaceGolden -update-api-surface
func TestFacadeAPISurfaceGolden(t *testing.T) {
	got := []byte(strings.Join(exportedSurface(t), "\n") + "\n")
	const golden = "testdata/api_surface.golden"
	if *updateSurface {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d symbols)", golden, bytes.Count(got, []byte("\n")))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden export list (run with -update-api-surface): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exported API surface changed.\nIf intentional, update MIGRATION.md and run:\n  go test . -run TestFacadeAPISurfaceGolden -update-api-surface\ndiff:\n%s",
			surfaceDiff(string(want), string(got)))
	}
}

// surfaceDiff renders a +/- line diff of two sorted symbol lists.
func surfaceDiff(want, got string) string {
	wantSet := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(want), "\n") {
		wantSet[l] = true
	}
	gotSet := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(got), "\n") {
		gotSet[l] = true
	}
	var b strings.Builder
	for l := range wantSet {
		if !gotSet[l] {
			fmt.Fprintf(&b, "  - %s\n", l)
		}
	}
	for l := range gotSet {
		if !wantSet[l] {
			fmt.Fprintf(&b, "  + %s\n", l)
		}
	}
	return b.String()
}

// TestFacadeLinksNoTooling keeps the static-analysis toolchain out of
// every program that imports the facade: cmd/tinysdr-vet drives
// internal/lint itself, and the library must not link it or the go/types
// and os/exec machinery it loads packages with.
func TestFacadeLinksNoTooling(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if strings.HasPrefix(dep, "github.com/uwsdr/tinysdr/internal/lint") ||
			dep == "go/types" || dep == "os/exec" {
			t.Errorf("the facade links %s", dep)
		}
	}
}

// Compile-time exercise of every exported symbol, in golden-list order: a
// facade rename or removal breaks this block (and the golden diff above)
// before it breaks any downstream caller.
var _ = []any{
	CR45, CR46, CR47, CR48,
	FleetBroadcast, FleetUnicast,
	TargetFPGA, TargetMCU,
	AdaptSF, BLEDesign, BuildUpdate, DefaultBackscatterConfig,
	DefaultLoRaParams, InterfererWaveform, LoRaDesign, New,
	NewBLEModem, NewBackscatterModem, NewBroadcastOTASession, NewCFOStage,
	NewChannelScenario, NewConcurrentDecoder, NewConcurrentTransmitter,
	NewFlatFadingStage, NewFleetServer, NewGainStage, NewInterfererStage,
	NewLoRaModem, NewModem, NewNoiseStage, NewOTASession, NewTestbed,
	NewTestbedN, OpenLink, ParseScenario, RegisteredPHYs, RunFleetCampaign,
	SynthBitstream, SynthMCUFirmware, TestbedCDF,
}

var (
	_ BackscatterConfig
	_ Beacon
	_ BroadcastOTASession
	_ BroadcastTarget
	_ ChannelScenario
	_ ChannelStage
	_ CodingRate
	_ ConcurrentDecoder
	_ ConcurrentTransmitter
	_ Config
	_ Design
	_ Device
	_ FleetNodeResult
	_ FleetResult
	_ FleetServer
	_ FleetSpec
	_ InterfererStage
	_ Link
	_ LinkStats
	_ LoRaPacket
	_ LoRaParams
	_ Modem
	_ OTASession
	_ PathLoss
	_ RadioProfile
	_ Samples
	_ ScenarioLink
	_ ScenarioSpec
	_ Testbed
	_ TestbedResult
	_ Update
	_ UpdateTarget
)

// TestFacadeModemLink exercises the protocol-agnostic surface end to end:
// registry construction, typed constructors, link-budget anchors from one
// radio profile, and the Link pipeline for every registered PHY.
func TestFacadeModemLink(t *testing.T) {
	phys := RegisteredPHYs()
	if len(phys) < 3 {
		t.Fatalf("registered PHYs = %v, want at least lora/ble/backscatter", phys)
	}
	for _, name := range phys {
		tx, err := NewModem(name)
		if err != nil {
			t.Fatal(err)
		}
		rx, err := NewModem(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewChannelScenario(
			NewGainStage(rx.SensitivityDBm()+18),
			NewNoiseStage(rx.NoiseFloorDBm()),
		)
		link, err := OpenLink(tx, rx, sc, 42)
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := link.Send([]byte("hello"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(pkt) != "hello" {
			t.Errorf("%s: payload %q", name, pkt)
		}
		var stats LinkStats
		if stats, err = link.Run([]byte("hello"), 8); err != nil || stats.PER > 0.25 {
			t.Errorf("%s: stats %+v, err %v", name, stats, err)
		}
	}
	if _, err := NewModem("wifi"); err == nil {
		t.Error("unregistered modem accepted")
	}

	// Typed constructors share the registry modems' contract.
	lm, err := NewLoRaModem(DefaultLoRaParams())
	if err != nil {
		t.Fatal(err)
	}
	bm, err := NewBLEModem(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBackscatterModem(DefaultBackscatterConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLink(lm, bm, nil, 1); err == nil {
		t.Error("mismatched sample rates accepted")
	}
	if w, err := InterfererWaveform("backscatter", 125e3); err != nil || len(w) == 0 {
		t.Errorf("generic interferer waveform: %d samples, %v", len(w), err)
	}
}

// TestFacadeNoiseFigureConsistency is the regression test for the facade
// noise-figure mismatch: a LoRa modem's sensitivity and noise floor must
// both imply its radio profile's noise figure once the thermal and
// bandwidth terms are subtracted from each.
func TestFacadeNoiseFigureConsistency(t *testing.T) {
	p := DefaultLoRaParams()
	m, err := NewLoRaModem(p)
	if err != nil {
		t.Fatal(err)
	}
	nf := m.Radio().NoiseFigureDB
	nfFromSens := m.SensitivityDBm() - (-174 + 10*math.Log10(p.BW) - 5 - 2.5*float64(p.SF-6))
	nfFromFloor := m.NoiseFloorDBm() - (-174 + 10*math.Log10(p.SampleRate()))
	if math.Abs(nfFromSens-nf) > 1e-9 || math.Abs(nfFromFloor-nf) > 1e-9 {
		t.Errorf("mixed noise figures: %v from sensitivity, %v from floor, profile %v", nfFromSens, nfFromFloor, nf)
	}
}

func TestFacadeAdaptSF(t *testing.T) {
	if got := AdaptSF(-80, 125e3, 3); got != 7 {
		t.Errorf("strong link SF = %d, want 7", got)
	}
	if got := AdaptSF(-140, 125e3, 3); got != 12 {
		t.Errorf("dead link SF = %d, want 12", got)
	}
}

func TestFacadePathLoss(t *testing.T) {
	lm, err := NewLoRaModem(DefaultLoRaParams())
	if err != nil {
		t.Fatal(err)
	}
	m := PathLoss{FreqHz: 915e6, Exponent: 2.9}
	if r := m.RangeFor(14, 2, 0, lm.SensitivityDBm()); r < 1000 {
		t.Errorf("LoRa range = %.0f m, want km scale", r)
	}
}

func TestFacadeBroadcastOTA(t *testing.T) {
	img := SynthMCUFirmware(8*1024, 1)
	u, err := BuildUpdate(TargetMCU, img)
	if err != nil {
		t.Fatal(err)
	}
	var targets []BroadcastTarget
	var devs []*Device
	for i := 0; i < 3; i++ {
		d := New(Config{ID: uint16(i + 1)})
		devs = append(devs, d)
		targets = append(targets, BroadcastTarget{Node: d.OTA, RSSIdBm: -85})
	}
	sess := NewBroadcastOTASession(targets, 2)
	rep, err := sess.ProgramFleet(u, nil, OTAHealConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BroadcastPackets != len(u.Chunks) {
		t.Errorf("broadcast packets = %d", rep.BroadcastPackets)
	}
	for _, d := range devs {
		if err := d.OTA.VerifyImage(img, ota.TargetMCU); err != nil {
			t.Error(err)
		}
	}
}

func TestFacadeFleetCampaign(t *testing.T) {
	res, err := RunFleetCampaign(FleetSpec{
		Seed: 3, Nodes: 25, Mode: FleetBroadcast, ImageKB: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 25 || res.Shards != 2 {
		t.Fatalf("%d nodes in %d shards", len(res.Nodes), res.Shards)
	}
	if res.Failed != 0 {
		t.Errorf("%d nodes failed", res.Failed)
	}
	if srv := NewFleetServer(); srv == nil {
		t.Fatal("no fleet server")
	}
	if tb := NewTestbedN(3, 7); len(tb.Nodes) != 7 {
		t.Error("NewTestbedN size mismatch")
	}
}

func TestFacadeChaosCampaign(t *testing.T) {
	// The fault grammar round-trips through the facade and a faulted
	// quorum campaign completes with a classified taxonomy.
	spec, err := ParseFaultSpec("crash=0.0005,flashfail=0.01,desync=0.03:4")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Enabled() {
		t.Fatal("parsed fault spec injects nothing")
	}
	if plan := NewFaultPlan(spec, 1); plan == nil {
		t.Fatal("no fault plan")
	}
	res, err := RunFleetCampaignContext(context.Background(), FleetSpec{
		Seed: 3, Nodes: 20, Mode: FleetBroadcast, ImageKB: 8,
		Faults: spec.String(), Quorum: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.QuorumMet {
		t.Errorf("quorum not met: completion %.2f", res.CompletionFrac)
	}
	for _, n := range res.Nodes {
		if n.Err != "" && n.Class == "" {
			t.Errorf("node %d failed without a failure class: %s", n.ID, n.Err)
		}
	}
	if st := NewDropoutStage(1, 0); st.Name() != "dropout" {
		t.Errorf("dropout stage name %q", st.Name())
	}
}

func TestFacadeDeviceRecording(t *testing.T) {
	// RecordTrace is the one capture path: a live link run recorded
	// through the ADC tap replays to the recorded per-packet outcomes.
	tx, err := NewModem("lora")
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewModem("lora")
	if err != nil {
		t.Fatal(err)
	}
	sc := NewChannelScenario(NewGainStage(rx.SensitivityDBm()+3), NewNoiseStage(rx.NoiseFloorDBm()))
	link, err := OpenLink(tx, rx, sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	meta := TraceMeta{PHY: "lora", Seed: 5, SampleRate: rx.SampleRate(), Bits: 13, Payload: []byte("capture")}
	tr, err := RecordTrace(link, meta, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Manifest.Packets) != 4 {
		t.Fatalf("recorded %d packets, want 4", len(tr.Manifest.Packets))
	}
	if err := VerifyTrace(tr, 2); err != nil {
		t.Error(err)
	}
}
