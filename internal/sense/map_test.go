package sense

import (
	"bytes"
	"math"
	"testing"
)

func testMap(t *testing.T, ticks, bins int) *Map {
	t.Helper()
	m, err := NewMap(ticks, bins, 1e6, -85)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func reportFor(tick int, bins int, base int16) *Report {
	codes := make([]int16, bins)
	for i := range codes {
		codes[i] = base + int16(i)
	}
	return &Report{Node: 1, Tick: uint32(tick), SampleRate: 1e6, Codes: codes}
}

func TestNewMapRejects(t *testing.T) {
	for _, c := range []struct{ ticks, bins int }{
		{0, 8}, {MaxMapTicks + 1, 8}, {8, 0}, {8, MaxReportBins + 1}, {MaxMapTicks, MaxReportBins},
	} {
		if _, err := NewMap(c.ticks, c.bins, 1e6, -85); err == nil {
			t.Errorf("%d×%d accepted", c.ticks, c.bins)
		}
	}
	if _, err := NewMap(4, 8, math.Inf(1), -85); err == nil {
		t.Error("infinite rate accepted")
	}
}

func TestMapAbsorbAndStats(t *testing.T) {
	m := testMap(t, 4, 8)
	// Threshold -85 dBm quantizes to -340; codes straddle it.
	r := reportFor(2, 8, -344) // codes -344..-337: 4 below, 4 at/above
	if err := m.Absorb(r); err != nil {
		t.Fatal(err)
	}
	if err := m.Absorb(r); err != nil {
		t.Fatal(err)
	}
	if m.Reports != 2 {
		t.Fatalf("reports %d", m.Reports)
	}
	c := m.Cell(2, 0)
	if c.Count != 2 || c.Occupied != 0 || c.MinQ != -344 || c.MaxQ != -344 {
		t.Fatalf("cell 0: %+v", *c)
	}
	if got := m.Cell(2, 4).Occupancy(); got != 1 {
		t.Fatalf("occupancy %g at the threshold code", got)
	}
	if c.SumQ != -688 || c.SumSqQ != 2*344*344 {
		t.Fatalf("moments %d, %d of two -344 codes", c.SumQ, c.SumSqQ)
	}
	if got := *m.Cell(0, 0); got != (Cell{}) {
		t.Fatalf("uncovered cell %+v", got)
	}

	// Spread codes: the moments stay exact integers.
	r2 := reportFor(2, 8, -336)
	if err := m.Absorb(r2); err != nil {
		t.Fatal(err)
	}
	c = m.Cell(2, 0)
	if c.Count != 3 || c.MinQ != -344 || c.MaxQ != -336 ||
		c.SumQ != -1024 || c.SumSqQ != 2*344*344+336*336 {
		t.Fatalf("cell 0 after a spread code: %+v", *c)
	}
}

func TestMapAbsorbRejects(t *testing.T) {
	m := testMap(t, 4, 8)
	bad := reportFor(0, 8, 0)
	bad.SampleRate = 2e6
	if err := m.Absorb(bad); err == nil {
		t.Error("rate mismatch accepted")
	}
	if err := m.Absorb(reportFor(0, 4, 0)); err == nil {
		t.Error("bin mismatch accepted")
	}
	if err := m.Absorb(reportFor(4, 8, 0)); err == nil {
		t.Error("out-of-range tick accepted")
	}
	if m.Reports != 0 {
		t.Fatalf("rejected reports counted: %d", m.Reports)
	}
}

func TestMapCellPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	testMap(t, 2, 2).Cell(2, 0)
}

// TestMapAbsorbOrderEquivalence pins the order-free property: absorbing
// a report set forwards or backwards yields byte-identical maps.
func TestMapAbsorbOrderEquivalence(t *testing.T) {
	reports := []*Report{
		reportFor(0, 8, -400), reportFor(1, 8, -300), reportFor(0, 8, -350),
		reportFor(3, 8, -500), reportFor(1, 8, -320), reportFor(2, 8, 100),
	}
	whole := testMap(t, 4, 8)
	for _, r := range reports {
		if err := whole.Absorb(r); err != nil {
			t.Fatal(err)
		}
	}
	want, err := whole.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	reversed := testMap(t, 4, 8)
	for i := len(reports) - 1; i >= 0; i-- {
		if err := reversed.Absorb(reports[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := reversed.MarshalBinary(); !bytes.Equal(got, want) {
		t.Fatal("reverse-order absorb differs")
	}
}

func TestMapMarshalRoundTrip(t *testing.T) {
	m := testMap(t, 3, 8)
	for _, r := range []*Report{reportFor(0, 8, -300), reportFor(2, 8, -200)} {
		if err := m.Absorb(r); err != nil {
			t.Fatal(err)
		}
	}
	wire, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Map
	if err := got.UnmarshalBinary(wire); err != nil {
		t.Fatal(err)
	}
	if got.Ticks != m.Ticks || got.Bins != m.Bins || got.Reports != m.Reports ||
		got.ThresholdQ != m.ThresholdQ || got.SampleRate != m.SampleRate {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range m.Cells {
		if got.Cells[i] != m.Cells[i] {
			t.Fatalf("cell %d: %+v != %+v", i, got.Cells[i], m.Cells[i])
		}
	}
	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, again) {
		t.Fatal("re-marshal differs")
	}
}

func TestMapUnmarshalRejectsCorruption(t *testing.T) {
	m := testMap(t, 2, 4)
	if err := m.Absorb(reportFor(1, 4, -100)); err != nil {
		t.Fatal(err)
	}
	wire, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, f func(b []byte) []byte) {
		var mm Map
		if err := mm.UnmarshalBinary(f(append([]byte(nil), wire...))); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	mutate("bad version", func(b []byte) []byte { b[4] = 9; return b })
	mutate("truncated", func(b []byte) []byte { return b[:len(b)-3] })
	mutate("trailing", func(b []byte) []byte { return append(b, 1) })
	mutate("flipped cell", func(b []byte) []byte { b[40] ^= 1; return b })
	// Huge declared dims must be rejected before allocation: ticks at 16.
	mutate("huge ticks", func(b []byte) []byte {
		b[16], b[17], b[18], b[19] = 0xFF, 0xFF, 0xFF, 0xFF
		return b
	})
	mutate("zero bins", func(b []byte) []byte { b[20], b[21] = 0, 0; return b })

	// A stats-without-count cell fails marshal and unmarshal validation.
	bad := testMap(t, 1, 1)
	bad.Cells[0].SumQ = 5
	if _, err := bad.MarshalBinary(); err == nil {
		t.Error("ghost-stats cell marshaled")
	}
	bad.Cells[0] = Cell{Count: 1, Occupied: 2}
	if _, err := bad.MarshalBinary(); err == nil {
		t.Error("occupied>count cell marshaled")
	}
	bad.Cells[0] = Cell{Count: 1, MinQ: 5, MaxQ: -5}
	if _, err := bad.MarshalBinary(); err == nil {
		t.Error("min>max cell marshaled")
	}
}

// FuzzMapUnmarshal pins memory-safety and the canonical-form contract of
// the TSOM parser: whatever bytes are accepted must re-marshal to the
// identical input.
func FuzzMapUnmarshal(f *testing.F) {
	m, err := NewMap(2, 4, 1e6, -85)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []*Report{reportFor(0, 4, -400), reportFor(1, 4, -100), reportFor(1, 4, 20)} {
		if err := m.Absorb(r); err != nil {
			f.Fatal(err)
		}
	}
	wire, err := m.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add([]byte("TSOM"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Map
		if err := m.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted map fails to marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted map is not canonical:\n in  %x\n out %x", data, out)
		}
	})
}

func TestMapSummarize(t *testing.T) {
	m := testMap(t, 2, 4)
	if s := m.Summarize(); s.Occupancy != 0 || !math.IsInf(s.PeakDBm, -1) {
		t.Fatalf("empty summary: %+v", s)
	}
	// One report fully above threshold in tick 0.
	if err := m.Absorb(reportFor(0, 4, 0)); err != nil {
		t.Fatal(err)
	}
	s := m.Summarize()
	if s.Reports != 1 || s.Occupancy != 1 {
		t.Fatalf("summary: %+v", s)
	}
	if s.PeakDBm != CodeToDBm(3) {
		t.Fatalf("peak %g", s.PeakDBm)
	}
	if s.ThresholdDBm != -85 {
		t.Fatalf("threshold %g", s.ThresholdDBm)
	}
}
