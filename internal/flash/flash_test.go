package flash

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestNewFlashIsErased(t *testing.T) {
	f := New()
	got, err := f.Read(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0xFF {
			t.Fatalf("byte %d = %#x, want 0xFF", i, b)
		}
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	f := New()
	data := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	if err := f.Program(100, data); err != nil {
		t.Fatal(err)
	}
	got, err := f.Read(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read back %x, want %x", got, data)
	}
}

func TestProgramWithoutEraseFails(t *testing.T) {
	f := New()
	if err := f.Program(0, []byte{0x0F}); err != nil {
		t.Fatal(err)
	}
	// 0x0F -> 0xF0 would need setting bits: must fail.
	if err := f.Program(0, []byte{0xF0}); err == nil {
		t.Fatal("overwrite without erase must fail")
	}
	// But clearing more bits is legal NOR behaviour.
	if err := f.Program(0, []byte{0x0E}); err != nil {
		t.Fatalf("bit-clearing program rejected: %v", err)
	}
}

func TestEraseRestoresProgrammability(t *testing.T) {
	f := New()
	if err := f.Program(0, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	if err := f.Erase(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Program(0, []byte{0xAB}); err != nil {
		t.Fatalf("program after erase failed: %v", err)
	}
}

func TestEraseWholeSectors(t *testing.T) {
	f := New()
	if err := f.Program(SectorSize-1, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	if err := f.Program(SectorSize, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	// Erasing 1 byte at sector 0 wipes all of sector 0, not sector 1.
	if err := f.Erase(0, 1); err != nil {
		t.Fatal(err)
	}
	b0, _ := f.Read(SectorSize-1, 1)
	b1, _ := f.Read(SectorSize, 1)
	if b0[0] != 0xFF {
		t.Error("sector 0 tail not erased")
	}
	if b1[0] != 0x00 {
		t.Error("sector 1 must be untouched")
	}
}

func TestEraseAlignment(t *testing.T) {
	f := New()
	if err := f.Erase(1, 10); err == nil {
		t.Fatal("unaligned erase must fail")
	}
}

func TestBounds(t *testing.T) {
	f := New()
	if err := f.Program(Size-1, []byte{1, 2}); err == nil {
		t.Error("out-of-bounds program accepted")
	}
	if _, err := f.Read(-1, 4); err == nil {
		t.Error("negative read accepted")
	}
	if err := f.Erase(Size, SectorSize); err == nil {
		t.Error("out-of-bounds erase accepted")
	}
}

func TestProgramReadAcrossSectors(t *testing.T) {
	// Writes and reads spanning sector boundaries must behave exactly as a
	// flat array, including the erased gap around the written span (the
	// sparse backing store materializes sectors on demand).
	f := New()
	data := make([]byte, 3*SectorSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := 5*SectorSize - 100
	if err := f.Program(addr, data); err != nil {
		t.Fatal(err)
	}
	got, err := f.Read(addr-8, len(data)+16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if got[i] != 0xFF || got[len(got)-1-i] != 0xFF {
			t.Fatal("margin around programmed span not erased")
		}
	}
	if !bytes.Equal(got[8:8+len(data)], data) {
		t.Error("cross-sector round trip mismatch")
	}
	// A rejected program must leave the device untouched.
	if err := f.Program(addr, []byte{0xFF}); err == nil {
		t.Fatal("bit-setting program accepted")
	}
	got2, _ := f.Read(addr, 1)
	if got2[0] != data[0] {
		t.Error("failed program mutated flash")
	}
}

func TestProgramRejectsFirstNonErasableByte(t *testing.T) {
	// An unaligned write across a sector boundary that needs a bit set at
	// bytes 13 and 41: the error names the first of them with its stored
	// and wanted bytes, and the device keeps its contents.
	f := New()
	addr := SectorSize - 21
	orig := make([]byte, 64)
	for i := range orig {
		orig[i] = byte(i)
	}
	if err := f.Program(addr, orig); err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(orig)
	want[13] |= 0x80
	want[41] |= 0x80
	err := f.Program(addr, want)
	if err == nil {
		t.Fatal("bit-setting program accepted")
	}
	if got, msg := err.Error(), "flash: program at 0xff8 requires erase (stored 0x0d, want 0x8d)"; got != msg {
		t.Errorf("error %q, want %q", got, msg)
	}
	got, err := f.Read(addr-8, len(orig)+16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[8:8+len(orig)], orig) {
		t.Error("rejected program mutated flash")
	}
	for i := 0; i < 8; i++ {
		if got[i] != 0xFF || got[len(got)-1-i] != 0xFF {
			t.Fatal("margin around programmed span not erased")
		}
	}
}

// TestRecycledSectorsHoldNoOldData programs a device fully, erases it so
// its sectors go back to the pool, then programs a fresh device with a
// partial span, a whole sector and a span that straddles a whole sector.
// The fresh device must read erased outside its writes and exactly its
// data inside, the NOR check and bit-rot must act on what it stored, and
// the erased device must read erased.
func TestRecycledSectorsHoldNoOldData(t *testing.T) {
	const span = 8 * SectorSize
	for round := 0; round < 4; round++ {
		a := New()
		if err := a.Program(0, make([]byte, span)); err != nil {
			t.Fatal(err)
		}
		if err := a.Erase(0, Size); err != nil {
			t.Fatal(err)
		}

		b := New()
		want := bytes.Repeat([]byte{0xFF}, span)
		write := func(addr, n int) {
			t.Helper()
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i*13+round) &^ 0x80
			}
			if err := b.Program(addr, data); err != nil {
				t.Fatal(err)
			}
			copy(want[addr:], data)
		}
		write(100, 50)                        // partial span
		write(2*SectorSize, SectorSize)       // one whole sector
		write(4*SectorSize-10, SectorSize+20) // partial, whole, partial
		got, err := b.Read(0, span)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("round %d: byte %#x reads %#02x, want %#02x", round, i, got[i], want[i])
		}
		if got, _ := a.Read(0, span); firstDiff(got, bytes.Repeat([]byte{0xFF}, span)) >= 0 {
			t.Fatalf("round %d: erased device does not read erased", round)
		}

		// The NOR check sees the stored bytes of a recycled whole sector.
		at := 2*SectorSize + 77
		err = b.Program(at, []byte{want[at] | 0x80})
		if msg := fmt.Sprintf("flash: program at %#x requires erase (stored %#02x, want %#02x)",
			at, want[at], want[at]|0x80); err == nil || err.Error() != msg {
			t.Fatalf("round %d: bit-setting program gave %v, want %q", round, err, msg)
		}

		// Bit-rot flips one stored bit of a recycled whole sector.
		b.SetWriteFaults(&stubFaults{flipByte: 9, flipBit: 2})
		write(6*SectorSize, SectorSize)
		b.SetWriteFaults(nil)
		want[6*SectorSize+9] ^= 1 << 2
		if got, _ := b.Read(0, span); firstDiff(got, want) >= 0 {
			t.Fatalf("round %d: bit-rot on a whole-sector write: byte %#x differs", round, firstDiff(got, want))
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestEraseWideRange erases a range wider than the populated map, which
// walks the map: sectors inside revert, sectors on either side keep their
// bytes.
func TestEraseWideRange(t *testing.T) {
	f := New()
	sectors := []int{0, 3, 4, 200, 203, 204, 2047}
	for _, idx := range sectors {
		if err := f.Program(idx*SectorSize, []byte{0x5A}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Erase(4*SectorSize, 199*SectorSize+1); err != nil { // sectors 4..203
		t.Fatal(err)
	}
	for _, idx := range sectors {
		want := byte(0x5A)
		if idx >= 4 && idx <= 203 {
			want = 0xFF
		}
		if got, _ := f.Read(idx*SectorSize, 1); got[0] != want {
			t.Errorf("sector %d reads %#02x, want %#02x", idx, got[0], want)
		}
	}
}

// TestReadIntoMatchesRead reads erased, programmed and cross-sector spans
// into caller storage without allocating.
func TestReadIntoMatchesRead(t *testing.T) {
	f := New()
	data := make([]byte, 2*SectorSize)
	for i := range data {
		data[i] = byte(i * 5)
	}
	if err := f.Program(3*SectorSize-7, data); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 3*SectorSize)
	for _, addr := range []int{0, 3*SectorSize - 100, 5 * SectorSize} {
		want, _ := f.Read(addr, len(dst))
		if err := f.ReadInto(dst, addr); err != nil || !bytes.Equal(dst, want) {
			t.Fatalf("ReadInto at %#x: err %v, equal %v", addr, err, bytes.Equal(dst, want))
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = f.ReadInto(dst, 2*SectorSize) }); allocs != 0 {
		t.Errorf("ReadInto allocates %.0f times", allocs)
	}
	if err := f.ReadInto(dst, Size-SectorSize); err == nil {
		t.Error("ReadInto past the device accepted")
	}
}

func TestReadFarErasedRegion(t *testing.T) {
	f := New()
	got, err := f.Read(Size-SectorSize, SectorSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0xFF {
			t.Fatal("untouched high region not erased")
		}
	}
}

func TestBitstreamFitsWithRoomForMultiple(t *testing.T) {
	// §3.1.2: 8 MB stores multiple 579 kB bitstreams plus MCU programs.
	const bitstream = 579 * 1024
	const mcuProg = 256 * 1024
	if n := Size / (bitstream + mcuProg); n < 9 {
		t.Errorf("flash stores %d firmware pairs, want >= 9", n)
	}
}

func TestQuadReadTimeMatchesBootBudget(t *testing.T) {
	// Reading a 579 kB bitstream over 62 MHz quad SPI ≈ 19 ms, within the
	// paper's 22 ms FPGA configuration time.
	d := QuadReadTime(579 * 1024)
	if d < 15*time.Millisecond || d > 22*time.Millisecond {
		t.Errorf("quad read of bitstream = %v, want ≈19 ms", d)
	}
}

func TestProgramTimeScalesLinearly(t *testing.T) {
	if ProgramTime(2000) != 2*ProgramTime(1000) {
		t.Error("program time must scale linearly")
	}
	if ProgramTime(0) != 0 {
		t.Error("zero bytes take zero time")
	}
}

func TestSDCard(t *testing.T) {
	c := NewSDCard(1024)
	if err := c.Append(1000); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(100); err == nil {
		t.Fatal("overflow accepted")
	}
	if c.Used() != 1000 {
		t.Errorf("used = %d", c.Used())
	}
	if err := c.Append(-1); err == nil {
		t.Fatal("negative append accepted")
	}
}

func TestSDCardSustainsIQStream(t *testing.T) {
	// The §3.2.2 design argument: SPI mode must sustain the 104 Mbps
	// real-time sample stream.
	if !CanSustainIQStream() {
		t.Fatal("SPI mode cannot sustain the I/Q stream; contradicts §3.2.2")
	}
}

// stubFaults scripts the WriteFaults hook for one Program call at a time.
type stubFaults struct {
	err      error
	flipByte int
	flipBit  int
	calls    int
}

func (s *stubFaults) FaultWrite(addr int, data []byte) (int, int, error) {
	s.calls++
	return s.flipByte, s.flipBit, s.err
}

func TestWriteFaultsErrorLeavesFlashUntouched(t *testing.T) {
	f := New()
	stub := &stubFaults{err: errFault, flipByte: -1}
	f.SetWriteFaults(stub)
	if err := f.Program(0, []byte{0x12, 0x34}); err == nil {
		t.Fatal("faulted program succeeded")
	}
	if stub.calls != 1 {
		t.Fatalf("hook called %d times", stub.calls)
	}
	got, _ := f.Read(0, 2)
	for i, b := range got {
		if b != 0xFF {
			t.Errorf("byte %d = %#x after failed write, want erased 0xFF", i, b)
		}
	}
}

func TestWriteFaultsBitFlipHitsStoredCopyOnly(t *testing.T) {
	f := New()
	f.SetWriteFaults(&stubFaults{flipByte: 1, flipBit: 3})
	data := []byte{0xF0, 0xFF, 0xF0}
	if err := f.Program(0, data); err != nil {
		t.Fatal(err)
	}
	if data[1] != 0xFF {
		t.Fatal("bit-rot mutated the caller's buffer")
	}
	got, _ := f.Read(0, 3)
	if got[1] != 0xFF^(1<<3) {
		t.Errorf("stored byte 1 = %#x, want %#x", got[1], 0xFF^(1<<3))
	}
	if got[0] != 0xF0 || got[2] != 0xF0 {
		t.Error("bit-rot spread beyond the flipped byte")
	}
}

func TestWriteFaultsClearedHookPassesWrites(t *testing.T) {
	f := New()
	stub := &stubFaults{err: errFault, flipByte: -1}
	f.SetWriteFaults(stub)
	f.SetWriteFaults(nil)
	if err := f.Program(0, []byte{0x55}); err != nil {
		t.Fatalf("program after clearing hook: %v", err)
	}
	if stub.calls != 0 {
		t.Error("cleared hook still consulted")
	}
}

var errFault = errors.New("stub write fault")
