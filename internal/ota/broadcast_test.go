package ota

import (
	"bytes"
	"math"
	"testing"
	"time"

	"github.com/uwsdr/tinysdr/internal/fpga"
	"github.com/uwsdr/tinysdr/internal/power"
)

func broadcastFleet(t *testing.T, n int, rssi float64) []BroadcastTarget {
	t.Helper()
	targets := make([]BroadcastTarget, n)
	for i := range targets {
		node, _ := testNode(t, uint16(i+1))
		targets[i] = BroadcastTarget{Node: node, RSSIdBm: rssi}
	}
	return targets
}

func TestBroadcastDeliversExactImages(t *testing.T) {
	img := fpga.SynthMCUFirmware(16*1024, 3)
	u, err := BuildUpdate(TargetMCU, img)
	if err != nil {
		t.Fatal(err)
	}
	targets := broadcastFleet(t, 5, -90)
	sess := NewBroadcastSession(targets, 1)
	rep, err := sess.ProgramFleet(u, nil, HealConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BroadcastPackets != len(u.Chunks) {
		t.Errorf("broadcast packets = %d, want %d", rep.BroadcastPackets, len(u.Chunks))
	}
	for _, tg := range targets {
		if err := tg.Node.VerifyImage(img, TargetMCU); err != nil {
			t.Errorf("node %d: %v", tg.Node.ID, err)
		}
	}
	if len(rep.PerNode) != 5 {
		t.Errorf("per-node stats = %d", len(rep.PerNode))
	}
	for _, p := range rep.PerNode {
		if p.Err != nil {
			t.Errorf("node %d failed: %v", p.NodeID, p.Err)
		}
		if p.Class != FailNone {
			t.Errorf("node %d class %q on success", p.NodeID, p.Class)
		}
		if p.Duration <= 0 {
			t.Errorf("node %d duration = %v", p.NodeID, p.Duration)
		}
	}
	if rep.Failed() != 0 {
		t.Errorf("failed = %d, want 0", rep.Failed())
	}
	if rep.AirBytes == 0 {
		t.Error("no air bytes accounted")
	}
}

func TestBroadcastLosslessFleetReport(t *testing.T) {
	// On a fleet whose links lose nothing, the NACK-repair protocol must
	// reproduce the single-pass broadcast protocol it replaced (one
	// announce per node, one pass, no repair) exactly: the values below
	// were recorded from that protocol, including each node's ledger
	// energy with its radio woken before the request airtime.
	img := fpga.SynthMCUFirmware(16*1024, 3)
	u, err := BuildUpdate(TargetMCU, img)
	if err != nil {
		t.Fatal(err)
	}
	rssis := []float64{-60, -85, -100, -110}
	targets := make([]BroadcastTarget, len(rssis))
	pmus := make([]*power.PMU, len(rssis))
	for i, rssi := range rssis {
		node, pmu := testNode(t, uint16(i+1))
		targets[i] = BroadcastTarget{Node: node, RSSIdBm: rssi}
		pmus[i] = pmu
	}
	rep, err := NewBroadcastSession(targets, 1).ProgramFleet(u, nil, HealConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const fleetTime = 9943679661 * time.Nanosecond
	if rep.FleetTime != fleetTime || rep.AirBytes != 9697 ||
		rep.BroadcastPackets != 162 || rep.RepairPackets != 0 {
		t.Errorf("report: FleetTime %d ns, AirBytes %d, BroadcastPackets %d, RepairPackets %d; "+
			"want %d ns, 9697, 162, 0", rep.FleetTime, rep.AirBytes, rep.BroadcastPackets,
			rep.RepairPackets, fleetTime)
	}
	energies := []float64{0.4177922749823436, 0.4163624514819629, 0.41493262798158215, 0.41350280448120136}
	for i, p := range rep.PerNode {
		if p.Err != nil || p.Duration != fleetTime || p.Repairs != 0 {
			t.Errorf("node %d: Duration %d ns, Repairs %d, Err %v; want %d ns, 0, nil",
				p.NodeID, p.Duration, p.Repairs, p.Err, fleetTime)
		}
		// A relative tolerance keeps the pin valid where the compiler
		// fuses multiply-adds; one request airtime booked in the wrong
		// radio state moves a node's energy by about 0.3%.
		if got := pmus[i].Ledger().Energy(); math.Abs(got-energies[i]) > 1e-12*energies[i] {
			t.Errorf("node %d energy %.16g J, want %.16g J", p.NodeID, got, energies[i])
		}
	}
}

func TestBroadcastDataFramesUseBroadcastAddr(t *testing.T) {
	// A node in update mode must accept broadcast-addressed data (the §7
	// broadcast phase has no per-node addressing) while still rejecting
	// unicast frames for other nodes.
	img := fpga.SynthMCUFirmware(4*1024, 11)
	u, _ := BuildUpdate(TargetMCU, img)
	node, _ := testNode(t, 7)
	m := u.Manifest()
	mb, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.HandleProgramRequest(&Frame{Type: FrameProgramRequest, Device: 7, Payload: mb}); err != nil {
		t.Fatal(err)
	}
	ack, err := node.HandleData(&Frame{Type: FrameData, Device: BroadcastAddr, Seq: 0, Payload: u.Chunks[0]})
	if err != nil {
		t.Fatalf("broadcast-addressed data rejected: %v", err)
	}
	if ack.Type != FrameAck || ack.Seq != 0 {
		t.Errorf("bad ack %v seq %d", ack.Type, ack.Seq)
	}
	if _, err := node.HandleData(&Frame{Type: FrameData, Device: 8, Seq: 1, Payload: u.Chunks[1]}); err == nil {
		t.Error("unicast data for another node accepted")
	}
}

func TestBroadcastRepairsLossyNodes(t *testing.T) {
	img := fpga.SynthMCUFirmware(12*1024, 4)
	u, _ := BuildUpdate(TargetMCU, img)
	// One strong and one marginal node: the marginal one needs repair.
	strong, _ := testNode(t, 1)
	weak, _ := testNode(t, 2)
	sess := NewBroadcastSession([]BroadcastTarget{
		{Node: strong, RSSIdBm: -80},
		{Node: weak, RSSIdBm: -120}, // at sensitivity: ~16% packet loss
	}, 2)
	rep, err := sess.ProgramFleet(u, nil, HealConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairPackets == 0 {
		t.Error("marginal node needed no repairs; loss model suspect")
	}
	for _, n := range []*Node{strong, weak} {
		if err := n.VerifyImage(img, TargetMCU); err != nil {
			t.Errorf("node %d: %v", n.ID, err)
		}
	}
}

func TestBroadcastBeatsSequentialOnFleets(t *testing.T) {
	// The §7 motivation: for a fleet, broadcasting the shared transfer
	// must be much faster than programming nodes one at a time.
	img := fpga.SynthMCUFirmware(16*1024, 5)
	u, _ := BuildUpdate(TargetMCU, img)

	const fleet = 8
	// Sequential: total fleet time is the sum of per-node sessions.
	var sequential float64
	for i := 0; i < fleet; i++ {
		node, _ := testNode(t, uint16(100+i))
		sess := NewSession(node, -85, int64(10+i))
		rep, err := sess.Program(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		sequential += rep.Duration.Seconds()
	}

	targets := broadcastFleet(t, fleet, -85)
	bsess := NewBroadcastSession(targets, 3)
	brep, err := bsess.ProgramFleet(u, nil, HealConfig{})
	if err != nil {
		t.Fatal(err)
	}
	speedup := sequential / brep.FleetTime.Seconds()
	if speedup < 3 {
		t.Errorf("broadcast speedup = %.1fx over sequential, want > 3x for an 8-node fleet", speedup)
	}
	t.Logf("sequential %.0f s, broadcast %.0f s (%.1fx)", sequential, brep.FleetTime.Seconds(), speedup)
}

func TestBroadcastFPGAUpdate(t *testing.T) {
	design := fpga.BLEBeaconDesign()
	img := fpga.SynthBitstream(design)
	u, err := BuildUpdate(TargetFPGA, img)
	if err != nil {
		t.Fatal(err)
	}
	targets := broadcastFleet(t, 3, -85)
	sess := NewBroadcastSession(targets, 4)
	if _, err := sess.ProgramFleet(u, design, HealConfig{}); err != nil {
		t.Fatal(err)
	}
	for _, tg := range targets {
		if tg.Node.FPGA.State() != fpga.StateRunning {
			t.Errorf("node %d FPGA not running", tg.Node.ID)
		}
	}
}

func TestBroadcastEmptyFleetRejected(t *testing.T) {
	u, _ := BuildUpdate(TargetMCU, fpga.SynthMCUFirmware(1024, 1))
	sess := NewBroadcastSession(nil, 1)
	if _, err := sess.ProgramFleet(u, nil, HealConfig{}); err == nil {
		t.Error("empty fleet accepted")
	}
}

func TestBroadcastUnreachableNodeFailsAlone(t *testing.T) {
	// One node out of retry budget is a per-node failure, not a fleet
	// abort: the reachable nodes must still be programmed, matching the
	// per-node semantics of Campus.ProgramAll.
	img := fpga.SynthMCUFirmware(4096, 2)
	u, _ := BuildUpdate(TargetMCU, img)
	dead, _ := testNode(t, 1)
	alive, _ := testNode(t, 2)
	sess := NewBroadcastSession([]BroadcastTarget{
		{Node: dead, RSSIdBm: -140},
		{Node: alive, RSSIdBm: -80},
	}, 5)
	rep, err := sess.ProgramFleet(u, nil, HealConfig{RetryBudget: 3})
	if err != nil {
		t.Fatalf("fleet aborted for one bad node: %v", err)
	}
	if rep.PerNode[0].Err == nil {
		t.Error("unreachable node reported as programmed")
	}
	if rep.PerNode[1].Err != nil {
		t.Errorf("reachable node failed: %v", rep.PerNode[1].Err)
	}
	if rep.Failed() != 1 {
		t.Errorf("failed = %d, want 1", rep.Failed())
	}
	if err := alive.VerifyImage(img, TargetMCU); err != nil {
		t.Errorf("surviving node image: %v", err)
	}
}

func TestBroadcastFleetTimeWithSkewedClocks(t *testing.T) {
	// FleetTime is each node's own elapsed time, so starting one node's
	// clock ahead of the rest must not change the result.
	img := fpga.SynthMCUFirmware(8*1024, 6)
	u, _ := BuildUpdate(TargetMCU, img)
	run := func(skew time.Duration) time.Duration {
		targets := broadcastFleet(t, 3, -90)
		targets[1].Node.Clock.Advance(skew)
		sess := NewBroadcastSession(targets, 8)
		rep, err := sess.ProgramFleet(u, nil, HealConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.FleetTime
	}
	base := run(0)
	skewed := run(3 * time.Hour)
	if base != skewed {
		t.Errorf("fleet time depends on starting clocks: %v vs %v", base, skewed)
	}
}

func TestBroadcastMatchesUnicastImages(t *testing.T) {
	// Equivalence: a broadcast session and per-node unicast sessions must
	// stage byte-identical firmware on every node.
	img := fpga.SynthMCUFirmware(16*1024, 9)
	u, _ := BuildUpdate(TargetMCU, img)

	const fleet = 4
	targets := broadcastFleet(t, fleet, -100)
	bsess := NewBroadcastSession(targets, 12)
	if _, err := bsess.ProgramFleet(u, nil, HealConfig{}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < fleet; i++ {
		un, _ := testNode(t, uint16(50+i))
		sess := NewSession(un, -100, int64(20+i))
		if _, err := sess.Program(u, nil); err != nil {
			t.Fatal(err)
		}
		want, err := un.Flash.Read(MCURegion, len(img))
		if err != nil {
			t.Fatal(err)
		}
		got, err := targets[i].Node.Flash.Read(MCURegion, len(img))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("node %d: broadcast and unicast staged different images", targets[i].Node.ID)
		}
	}
}

func TestBroadcastDeterministic(t *testing.T) {
	img := fpga.SynthMCUFirmware(8*1024, 7)
	u, _ := BuildUpdate(TargetMCU, img)
	run := func() (int, float64) {
		targets := broadcastFleet(t, 4, -117)
		sess := NewBroadcastSession(targets, 9)
		rep, err := sess.ProgramFleet(u, nil, HealConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.RepairPackets, rep.FleetTime.Seconds()
	}
	r1, t1 := run()
	r2, t2 := run()
	if r1 != r2 || t1 != t2 {
		t.Errorf("broadcast not deterministic: (%d, %v) vs (%d, %v)", r1, t1, r2, t2)
	}
}
