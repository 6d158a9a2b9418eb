package ota

import (
	"errors"
	"testing"

	"github.com/uwsdr/tinysdr/internal/fault"
	"github.com/uwsdr/tinysdr/internal/fpga"
)

func TestHealingNoFaultsDeliversExactImages(t *testing.T) {
	// A fault plan whose spec injects nothing must program every node
	// bit-exactly and leave the report exactly as a nil plan does: the
	// plan's hooks (flash write faults, crash, sleep, desync and AP
	// outage rolls) may not move a single frame on their own.
	img := fpga.SynthMCUFirmware(16*1024, 3)
	u, err := BuildUpdate(TargetMCU, img)
	if err != nil {
		t.Fatal(err)
	}
	run := func(plan *fault.Plan) ([]BroadcastTarget, *BroadcastReport) {
		targets := broadcastFleet(t, 5, -120)
		rep, err := NewBroadcastSession(targets, 1).ProgramFleet(u, nil, HealConfig{Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		return targets, rep
	}
	// At sensitivity the fleet needs repair rounds, so the plan is
	// consulted on every repair frame as well as on the broadcast pass.
	_, want := run(nil)
	if want.RepairPackets == 0 {
		t.Fatal("fleet needed no repair; move it closer to sensitivity")
	}
	targets, rep := run(fault.NewPlan(fault.Spec{}, 9))
	if rep.Failed() != 0 {
		t.Fatalf("failed = %d: %+v", rep.Failed(), rep.PerNode)
	}
	for _, tg := range targets {
		if err := tg.Node.VerifyImage(img, TargetMCU); err != nil {
			t.Errorf("node %d: %v", tg.Node.ID, err)
		}
	}
	if rep.FleetTime != want.FleetTime || rep.AirBytes != want.AirBytes ||
		rep.BroadcastPackets != want.BroadcastPackets || rep.RepairPackets != want.RepairPackets {
		t.Errorf("session totals with an empty plan %+v, nil plan %+v", rep, want)
	}
	for i, p := range rep.PerNode {
		w := want.PerNode[i]
		if p.Class != FailNone || p.Repairs != w.Repairs || p.Duration != w.Duration ||
			p.Crashes != 0 || p.FlashFaults != 0 {
			t.Errorf("node %d with an empty plan %+v, nil plan %+v", p.NodeID, p, w)
		}
	}
}

func TestHealingSurvivesFlashFaults(t *testing.T) {
	// Flash write failures are recoverable: the chunk stays missing and a
	// later repair round re-delivers it.
	img := fpga.SynthMCUFirmware(16*1024, 5)
	u, _ := BuildUpdate(TargetMCU, img)
	targets := broadcastFleet(t, 4, -80)
	sess := NewBroadcastSession(targets, 2)
	plan := fault.NewPlan(fault.Spec{FlashFailProb: 0.05}, 7)
	rep, err := sess.ProgramFleet(u, nil, HealConfig{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	faults := 0
	for _, p := range rep.PerNode {
		faults += p.FlashFaults
	}
	if faults == 0 {
		t.Error("no flash faults injected at prob 0.05")
	}
	if rep.Failed() != 0 {
		t.Fatalf("failed = %d despite repairable faults: %+v", rep.Failed(), rep.PerNode)
	}
	for _, tg := range targets {
		if err := tg.Node.VerifyImage(img, TargetMCU); err != nil {
			t.Errorf("node %d: %v", tg.Node.ID, err)
		}
	}
}

func TestHealingRecoversCrashedNodes(t *testing.T) {
	// A crash loses the node's transfer state; the repair rounds must
	// re-announce it and re-deliver what the erase threw away.
	img := fpga.SynthMCUFirmware(8*1024, 9)
	u, _ := BuildUpdate(TargetMCU, img)
	targets := broadcastFleet(t, 4, -80)
	sess := NewBroadcastSession(targets, 3)
	plan := fault.NewPlan(fault.Spec{CrashProb: 0.002}, 21)
	rep, err := sess.ProgramFleet(u, nil, HealConfig{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	crashes := 0
	for _, p := range rep.PerNode {
		crashes += p.Crashes
	}
	if crashes == 0 {
		t.Skip("no crash drawn for this seed; adjust the spec")
	}
	if rep.Failed() != 0 {
		t.Fatalf("failed = %d, want full recovery: %+v", rep.Failed(), rep.PerNode)
	}
	for _, tg := range targets {
		if err := tg.Node.VerifyImage(img, TargetMCU); err != nil {
			t.Errorf("node %d: %v", tg.Node.ID, err)
		}
	}
}

func TestHealingBudgetExhaustionClassified(t *testing.T) {
	// A hopeless link with a tiny budget must fail as exhausted-retries
	// (it took broadcast data) or unreachable (it never announced), and
	// the rest of the fleet must still program.
	img := fpga.SynthMCUFirmware(8*1024, 2)
	u, _ := BuildUpdate(TargetMCU, img)
	targets := broadcastFleet(t, 3, -80)
	targets[1].RSSIdBm = -160 // hopeless
	sess := NewBroadcastSession(targets, 4)
	rep, err := sess.ProgramFleet(u, nil, HealConfig{RetryBudget: 16})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerNode[1].Err == nil {
		t.Fatal("hopeless node succeeded")
	}
	if c := rep.PerNode[1].Class; c != FailUnreachable && c != FailExhausted {
		t.Errorf("hopeless node class %q", c)
	}
	for _, i := range []int{0, 2} {
		if rep.PerNode[i].Err != nil {
			t.Errorf("node %d failed: %v", rep.PerNode[i].NodeID, rep.PerNode[i].Err)
		}
	}
	if got := len(rep.PerNode) - rep.Failed(); got != 2 {
		t.Errorf("completed = %d", got)
	}
	for _, p := range rep.PerNode {
		if (p.Err != nil) != (p.Class != FailNone) {
			t.Errorf("node %d: error %v with class %q", p.NodeID, p.Err, p.Class)
		}
	}
}

func TestHealingCancellation(t *testing.T) {
	img := fpga.SynthMCUFirmware(8*1024, 6)
	u, _ := BuildUpdate(TargetMCU, img)
	// A lossy fleet guarantees at least one repair round runs.
	targets := broadcastFleet(t, 3, -115)
	sess := NewBroadcastSession(targets, 5)
	_, err := sess.ProgramFleet(u, nil, HealConfig{
		Canceled: func() bool { return true },
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestHealingDeterministicReports(t *testing.T) {
	// Same spec, same seed: the chaos campaign report must be identical in
	// every field, including fault counters and failure classes.
	img := fpga.SynthMCUFirmware(16*1024, 4)
	u, _ := BuildUpdate(TargetMCU, img)
	spec, err := fault.Parse("crash=0.001,flashfail=0.02,bitrot=0.002,desync=0.04:4,duty=0.05,apoutage=0.002:8")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *BroadcastReport {
		targets := broadcastFleet(t, 6, -95)
		sess := NewBroadcastSession(targets, 8)
		rep, err := sess.ProgramFleet(u, nil, HealConfig{Plan: fault.NewPlan(spec, 17)})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.FleetTime != b.FleetTime || a.AirBytes != b.AirBytes ||
		a.BroadcastPackets != b.BroadcastPackets || a.RepairPackets != b.RepairPackets {
		t.Fatalf("session totals differ: %+v vs %+v", a, b)
	}
	for i := range a.PerNode {
		pa, pb := a.PerNode[i], b.PerNode[i]
		if pa.Repairs != pb.Repairs || pa.Duration != pb.Duration ||
			pa.Class != pb.Class || pa.Crashes != pb.Crashes || pa.FlashFaults != pb.FlashFaults ||
			(pa.Err == nil) != (pb.Err == nil) {
			t.Errorf("node %d differs: %+v vs %+v", pa.NodeID, pa, pb)
		}
	}
}

func TestNodeRebootLosesState(t *testing.T) {
	img := fpga.SynthMCUFirmware(4*1024, 8)
	u, _ := BuildUpdate(TargetMCU, img)
	node, _ := testNode(t, 9)
	m := u.Manifest()
	mb, _ := m.MarshalBinary()
	if _, err := node.HandleProgramRequest(&Frame{Type: FrameProgramRequest, Device: 9, Payload: mb}); err != nil {
		t.Fatal(err)
	}
	if _, err := node.HandleData(&Frame{Type: FrameData, Device: 9, Seq: 0, Payload: u.Chunks[0]}); err != nil {
		t.Fatal(err)
	}
	if !node.InUpdate() || len(node.Missing()) != len(u.Chunks)-1 {
		t.Fatalf("update state wrong before reboot: inUpdate=%v missing=%d", node.InUpdate(), len(node.Missing()))
	}
	node.Reboot()
	if node.InUpdate() {
		t.Error("still in update after reboot")
	}
	if node.Missing() != nil {
		t.Error("rebooted node reports a missing set")
	}
	if _, err := node.HandleData(&Frame{Type: FrameData, Device: 9, Seq: 1, Payload: u.Chunks[1]}); err == nil {
		t.Error("rebooted node accepted data without re-announce")
	}
}
