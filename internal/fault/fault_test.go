package fault

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// validSpecs parse and survive a String round trip.
var validSpecs = []string{
	"crash=0.02",
	"crash=0.02,flashfail=0.01,bitrot=0.002,desync=0.05:4,duty=0.1,apoutage=0.01:8",
	"desync=0.05:7",
	"apoutage=0.3:2",
	"desync=0.5:1024", // the burst cap itself
	"",
	"none",
}

// invalidSpecs must be rejected.
var invalidSpecs = []string{
	"crash",                 // no value
	"crash=",                // empty value
	"crash=2",               // probability out of range
	"crash=-0.1",            // negative
	"crash=NaN",             // fails both range tests
	"crash=0.1:4",           // trailing arg on a scalar term
	"desync=0.1:4:9",        // too many args
	"desync=0.1:0",          // zero-length burst
	"desync=0.1:1025",       // burst over the cap
	"apoutage=0.1:10000000", // burst far over the cap
	"warp=0.5",              // unknown term
	"crash=zero",            // not a number
	"apoutage=0.1:-3",       // negative burst
	"crash=0.1,,duty=2",     // second term out of range
	"none,crash=0.1",        // none only stands alone
}

func TestParseRoundTrip(t *testing.T) {
	for _, in := range validSpecs {
		spec, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		out := spec.String()
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(String(%q)=%q): %v", in, out, err)
		}
		if back != spec {
			t.Errorf("round trip %q -> %q -> %+v != %+v", in, out, back, spec)
		}
	}
	if s, _ := Parse(""); s.String() != "none" {
		t.Errorf("empty spec renders %q", s.String())
	}
}

func TestParseRejects(t *testing.T) {
	for _, in := range invalidSpecs {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

// FuzzParse checks the grammar against its own renderer: whatever Parse
// accepts, String renders as text that Parse accepts again and renders
// identically.
func FuzzParse(f *testing.F) {
	for _, s := range validSpecs {
		f.Add(s)
	}
	for _, s := range invalidSpecs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := Parse(in)
		if err != nil {
			return
		}
		out := spec.String()
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its rendering %q is rejected: %v", in, out, err)
		}
		if again := back.String(); again != out {
			t.Fatalf("Parse(%q) renders %q, which re-renders as %q", in, out, again)
		}
	})
}

func TestScale(t *testing.T) {
	s, err := Parse("crash=0.2,desync=0.4:4")
	if err != nil {
		t.Fatal(err)
	}
	half := s.Scale(0.5)
	if half.CrashProb != 0.1 || half.DesyncProb != 0.2 {
		t.Errorf("Scale(0.5) = %+v", half)
	}
	if half.DesyncFrames != 4 {
		t.Error("Scale must keep burst lengths")
	}
	if x4 := s.Scale(4); x4.DesyncProb != 1 {
		t.Errorf("Scale must clamp at 1, got %g", x4.DesyncProb)
	}
	if zero := s.Scale(0); zero.Enabled() {
		t.Error("Scale(0) still enabled")
	}
}

func TestPlanDeterministicAndOrderFree(t *testing.T) {
	spec, _ := Parse("crash=0.1,flashfail=0.1,bitrot=0.1,desync=0.1:3,duty=0.1,apoutage=0.1:2")
	a := NewPlan(spec, 42)
	b := NewPlan(spec, 42)
	// Query b in reverse order: stateless plans must agree regardless.
	type q struct{ crash, sleep, desync, ap, wf bool }
	var qa, qb []q
	for node := uint16(0); node < 8; node++ {
		for f := int64(0); f < 200; f++ {
			qa = append(qa, q{a.CrashAt(node, f), a.Asleep(node, f), a.Desynced(node, f), a.APDown(f), a.WriteFails(node, f)})
		}
	}
	for node := int(7); node >= 0; node-- {
		var rev []q
		for f := int64(199); f >= 0; f-- {
			rev = append([]q{{b.CrashAt(uint16(node), f), b.Asleep(uint16(node), f), b.Desynced(uint16(node), f), b.APDown(f), b.WriteFails(uint16(node), f)}}, rev...)
		}
		qb = append(rev, qb...)
	}
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("query %d disagrees across orders: %+v vs %+v", i, qa[i], qb[i])
		}
	}
	if c := NewPlan(spec, 43); func() bool {
		for node := uint16(0); node < 8; node++ {
			for f := int64(0); f < 200; f++ {
				if a.CrashAt(node, f) != c.CrashAt(node, f) {
					return true
				}
			}
		}
		return false
	}() == false {
		t.Error("different seeds produced identical crash schedules")
	}
}

func TestRollDistribution(t *testing.T) {
	// Each kind's empirical hit rate over many (node, frame) cells must
	// track its probability: the hash must behave like a uniform draw.
	spec := Spec{CrashProb: 0.25, DutyCycleOff: 0.1, FlashFailProb: 0.05}
	p := NewPlan(spec, 7)
	const nodes, frames = 64, 400
	total := float64(nodes * frames)
	var crash, sleep, wf int
	for n := uint16(0); n < nodes; n++ {
		for f := int64(0); f < frames; f++ {
			if p.CrashAt(n, f) {
				crash++
			}
			if p.Asleep(n, f) {
				sleep++
			}
			if p.WriteFails(n, f) {
				wf++
			}
		}
	}
	check := func(name string, hits int, want float64) {
		got := float64(hits) / total
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%s rate %.3f, want %.3f±0.02", name, got, want)
		}
	}
	check("crash", crash, 0.25)
	check("sleep", sleep, 0.1)
	check("flashfail", wf, 0.05)
}

func TestDesyncBurstCoversWindow(t *testing.T) {
	spec := Spec{DesyncProb: 0.01, DesyncFrames: 5}
	p := NewPlan(spec, 3)
	// Find a burst start and check the following frames are covered.
	for f := int64(0); f < 10000; f++ {
		if p.roll(KindDesync, 1, f) < spec.DesyncProb {
			for g := f; g < f+5; g++ {
				if !p.Desynced(1, g) {
					t.Fatalf("frame %d inside burst at %d not desynced", g, f)
				}
			}
			return
		}
	}
	t.Fatal("no burst found in 10000 frames")
}

func TestBitRotPlacement(t *testing.T) {
	spec := Spec{BitRotProb: 1} // every write rots
	p := NewPlan(spec, 9)
	for w := int64(0); w < 100; w++ {
		byteIdx, bitIdx, ok := p.BitRot(5, w, 60)
		if !ok {
			t.Fatalf("write %d did not rot at prob 1", w)
		}
		if byteIdx < 0 || byteIdx >= 60 || bitIdx < 0 || bitIdx > 7 {
			t.Fatalf("write %d: flip at byte %d bit %d out of range", w, byteIdx, bitIdx)
		}
	}
	if _, _, ok := p.BitRot(5, 0, 0); ok {
		t.Error("zero-length write rotted")
	}
}

func TestNodeFaultsNilSafe(t *testing.T) {
	var p *Plan
	n := p.Node(3)
	if n != nil {
		t.Fatal("nil plan must yield a nil injector")
	}
	// The nil injector must pass writes untouched (typed-nil interface
	// hazard: flash stores it behind an interface and calls it).
	flipByte, _, err := n.FaultWrite(0, make([]byte, 8))
	if err != nil || flipByte != -1 {
		t.Fatalf("nil injector: flip %d err %v", flipByte, err)
	}
}

func TestNodeFaultsWriteStream(t *testing.T) {
	spec := Spec{FlashFailProb: 0.5}
	a := NewPlan(spec, 11).Node(2)
	b := NewPlan(spec, 11).Node(2)
	sawErr := false
	for w := 0; w < 64; w++ {
		_, _, errA := a.FaultWrite(w*256, make([]byte, 60))
		_, _, errB := b.FaultWrite(w*256, make([]byte, 60))
		if (errA == nil) != (errB == nil) {
			t.Fatalf("write %d: injectors disagree", w)
		}
		if errA != nil {
			sawErr = true
			if !errors.Is(errA, ErrFlashWrite) {
				t.Fatalf("write %d: %v does not wrap ErrFlashWrite", w, errA)
			}
		}
	}
	if !sawErr {
		t.Error("no write failed at prob 0.5 over 64 writes")
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{CrashProb: 1.5}).Validate(); err == nil {
		t.Error("probability 1.5 accepted")
	}
	if err := (Spec{DesyncFrames: -1}).Validate(); err == nil {
		t.Error("negative burst accepted")
	}
	if err := (Spec{}).Validate(); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
}

func ExampleParse() {
	spec, _ := Parse("crash=0.02,desync=0.05:4")
	fmt.Println(spec)
	// Output: crash=0.02,desync=0.05:4
}
