package lzo

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, data []byte) []byte {
	t.Helper()
	comp := Compress(data, nil)
	got, err := Decompress(comp, len(data))
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	return comp
}

func TestRoundTripBasics(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x42},
		[]byte("a"),
		[]byte("abcabcabcabcabcabc"),
		[]byte("the quick brown fox jumps over the lazy dog"),
		bytes.Repeat([]byte{0}, 100000),
		bytes.Repeat([]byte("0123456789abcdef"), 4096),
	}
	for i, c := range cases {
		t.Logf("case %d: %d -> %d bytes", i, len(c), len(roundTrip(t, c)))
	}
}

func TestRoundTripRandomProperty(t *testing.T) {
	f := func(data []byte) bool {
		comp := Compress(data, nil)
		if len(comp) > MaxCompressedSize(len(data)) {
			return false
		}
		got, err := Decompress(comp, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRoundTripPeriodicRuns exercises every overlap-copy path in
// matchCopy: periods below the byte-wise threshold, at it, and above it,
// against match lengths shorter and far longer than the period.
func TestRoundTripPeriodicRuns(t *testing.T) {
	for _, period := range []int{1, 2, 3, 7, 8, 9, 16, 64, 255} {
		pattern := make([]byte, period)
		for i := range pattern {
			pattern[i] = byte(i*37 + 11)
		}
		for _, reps := range []int{2, 3, 100, 5000} {
			data := bytes.Repeat(pattern, reps)
			comp := Compress(data, nil)
			got, err := Decompress(comp, len(data))
			if err != nil {
				t.Fatalf("period %d reps %d: %v", period, reps, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("period %d reps %d: round trip mismatch", period, reps)
			}
		}
	}
}

// TestMatchCopyMatchesByteLoop holds every copy path of matchCopy —
// single copy, doubling above and below the 8-byte period, and the short
// byte loop — to the byte-at-a-time definition of an LZ77 match, for
// every distance 1–24 and length 1–600.
func TestMatchCopyMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	prefix := make([]byte, 24)
	rng.Read(prefix)
	for dist := 1; dist <= 24; dist++ {
		for length := 1; length <= 600; length++ {
			want := append(make([]byte, 0, len(prefix)+length), prefix...)
			for k := 0; k < length; k++ {
				want = append(want, want[len(want)-dist])
			}
			got := matchCopy(append(make([]byte, 0, len(prefix)+length), prefix...), dist, length)
			if !bytes.Equal(got, want) {
				t.Fatalf("distance %d, length %d: matchCopy differs from the byte loop", dist, length)
			}
		}
	}
}

// decompressInputs are raw blocks of the shapes an OTA image has, for the
// decompressor tests to compress: all zeros, repetitive text, a sparse
// bitstream, noise, and a tiny block.
func decompressInputs() [][]byte {
	rng := rand.New(rand.NewSource(7))
	sparse := make([]byte, 8<<10) // bitstream-like: mostly unused frames
	for i := 0; i < len(sparse)/8; i++ {
		sparse[rng.Intn(len(sparse))] = byte(rng.Intn(256))
	}
	noise := make([]byte, 4<<10)
	rng.Read(noise)
	return [][]byte{
		make([]byte, 30<<10),
		bytes.Repeat([]byte("MODULE lora_demodulator PORT(clk, rst_n, iq_in, sym_out); "), 530)[:30<<10],
		sparse,
		noise,
		[]byte("tinysdr"),
	}
}

// TestDecompressIntoDirtyBuffer decodes into buffers full of stale bytes,
// large enough and too small, and requires DecompressLimit's output; a
// large enough buffer must be decoded in place.
func TestDecompressIntoDirtyBuffer(t *testing.T) {
	for i, img := range decompressInputs() {
		comp := Compress(img, nil)
		want, err := DecompressLimit(comp, len(img), 30<<10)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{30 << 10, len(img) / 2} {
			dst := bytes.Repeat([]byte{0xA5}, size)
			got, err := DecompressInto(dst, comp, len(img), 30<<10)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("input %d into %d stale bytes: err %v, equal %v", i, size, err, bytes.Equal(got, want))
			}
			if inPlace := len(got) > 0 && &got[0] == &dst[0]; inPlace != (size >= len(img)) {
				t.Errorf("input %d into %d bytes: decoded in place %v", i, size, inPlace)
			}
		}
	}
}

// TestDecompressIntoAllocatesNothing pins the finish path's promise: one
// block buffer serves every block with no allocation.
func TestDecompressIntoAllocatesNothing(t *testing.T) {
	dst := make([]byte, 30<<10)
	for i, img := range decompressInputs() {
		comp := Compress(img, nil)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := DecompressInto(dst, comp, len(img), len(dst)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("input %d: %.0f allocations per DecompressInto", i, allocs)
		}
	}
}

// TestDecompressLimitRejectsOversizedDeclaration pins the hostile-manifest
// fix: a declared output length beyond the caller's cap (or negative) must
// fail before any parsing, and a valid stream within the cap still decodes.
func TestDecompressLimitRejectsOversizedDeclaration(t *testing.T) {
	data := []byte("thirty-kilobyte-block-goes-here")
	comp := Compress(data, nil)
	if _, err := DecompressLimit(comp, len(data), len(data)-1); err == nil {
		t.Error("outLen above cap not rejected")
	}
	if _, err := DecompressLimit(comp, -1, 1<<20); err == nil {
		t.Error("negative outLen not rejected")
	}
	if _, err := DecompressLimit(nil, 1<<62, 1<<62); err == nil {
		// The incremental-growth path: a huge declared length with an
		// empty stream must fail on the length check, not allocate.
		t.Error("empty stream with huge outLen not rejected")
	}
	got, err := DecompressLimit(comp, len(data), len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("valid stream at exact cap: %q, %v", got, err)
	}
}

func TestZeroRunsCollapse(t *testing.T) {
	// The bitstream property §5.3 relies on: unused configuration frames
	// (zeros) must compress to well under 1%.
	data := make([]byte, 100000)
	comp := roundTrip(t, data)
	if ratio := float64(len(comp)) / float64(len(data)); ratio > 0.01 {
		t.Errorf("zero ratio = %.4f, want < 0.01", ratio)
	}
}

func TestRandomDataBarelyExpands(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 100000)
	rng.Read(data)
	comp := roundTrip(t, data)
	if ratio := float64(len(comp)) / float64(len(data)); ratio > 1.01 {
		t.Errorf("random expansion = %.4f, want < 1.01", ratio)
	}
}

func TestStructuredTextCompresses(t *testing.T) {
	data := bytes.Repeat([]byte("MODULE lora_demodulator PORT(clk, rst_n, iq_in, sym_out); "), 800)
	comp := roundTrip(t, data)
	if ratio := float64(len(comp)) / float64(len(data)); ratio > 0.1 {
		t.Errorf("repetitive text ratio = %.3f, want < 0.1", ratio)
	}
}

func TestDecompressRejectsCorruption(t *testing.T) {
	data := bytes.Repeat([]byte("tinysdr"), 1000)
	comp := Compress(data, nil)
	// Wrong output length.
	if _, err := Decompress(comp, len(data)+1); err == nil {
		t.Error("wrong length accepted")
	}
	if _, err := Decompress(comp, len(data)-1); err == nil {
		t.Error("short length accepted")
	}
	// Truncated stream.
	if _, err := Decompress(comp[:len(comp)/2], len(data)); err == nil {
		t.Error("truncated stream accepted")
	}
	// Bogus distance: a match token referencing before the start.
	bad := []byte{0x80, 0xFF, 0xFF} // len-3 match at distance 65535 with empty history
	if _, err := Decompress(bad, 3); err == nil {
		t.Error("invalid distance accepted")
	}
	// Zero distance.
	bad2 := []byte{0x00, 0x41, 0x80, 0x00, 0x00}
	if _, err := Decompress(bad2, 4); err == nil {
		t.Error("zero distance accepted")
	}
}

func TestDecompressEmptyStream(t *testing.T) {
	got, err := Decompress(nil, 0)
	if err != nil || len(got) != 0 {
		t.Errorf("empty stream: %v, %d bytes", err, len(got))
	}
	if _, err := Decompress(nil, 5); err == nil {
		t.Error("empty stream with nonzero length accepted")
	}
}

func TestOverlappingMatchRunEncoding(t *testing.T) {
	// "aaaaa..." must use a distance-1 overlapping match.
	data := bytes.Repeat([]byte{'a'}, 5000)
	comp := roundTrip(t, data)
	if len(comp) > 40 {
		t.Errorf("run of 5000 compressed to %d bytes, want < 40", len(comp))
	}
}

func TestBlockPipeline30KB(t *testing.T) {
	// §3.4: 30 kB blocks fit the MCU SRAM; block-wise compression must
	// reassemble to the exact image.
	rng := rand.New(rand.NewSource(2))
	img := make([]byte, 579*1024)
	// Mixed content: half zeros, half structured.
	for i := 0; i < len(img)/2; i += 64 {
		rng.Read(img[i : i+16])
	}
	blocks := CompressBlocks(img, 30*1024)
	wantBlocks := (len(img) + 30*1024 - 1) / (30 * 1024)
	if len(blocks) != wantBlocks {
		t.Errorf("blocks = %d, want %d", len(blocks), wantBlocks)
	}
	for i, b := range blocks {
		if b.RawLen > 30*1024 {
			t.Errorf("block %d raw length %d exceeds SRAM budget", i, b.RawLen)
		}
	}
	out, err := DecompressBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, img) {
		t.Fatal("block pipeline mismatch")
	}
	if CompressedSize(blocks) >= len(img) {
		t.Error("mixed image did not compress at all")
	}
}

func TestCompressBlocksPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CompressBlocks([]byte{1}, 0)
}

func TestDecompressBlocksPropagatesCorruption(t *testing.T) {
	blocks := CompressBlocks(bytes.Repeat([]byte("xyz"), 1000), 512)
	blocks[1].Data = blocks[1].Data[:len(blocks[1].Data)/2]
	if _, err := DecompressBlocks(blocks); err == nil {
		t.Error("corrupt block accepted")
	}
}

func TestCompressAppendsToDst(t *testing.T) {
	prefix := []byte{0xAB, 0xCD}
	out := Compress([]byte("hello world"), append([]byte(nil), prefix...))
	if !bytes.Equal(out[:2], prefix) {
		t.Error("Compress must append to dst")
	}
}

func BenchmarkCompressBitstreamLike(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	img := make([]byte, 579*1024)
	for i := 0; i < len(img)/8; i++ {
		img[rng.Intn(len(img))] = byte(rng.Intn(256))
	}
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(img, nil)
	}
}

func BenchmarkDecompress(b *testing.B) {
	data := bytes.Repeat([]byte("tinysdr firmware block"), 2000)
	comp := Compress(data, nil)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(comp, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompressZeroRun pins the overlap-copy hot path of node image
// reassembly: a 30 kB all-zero block decodes as one long overlapping match.
func BenchmarkDecompressZeroRun(b *testing.B) {
	data := make([]byte, 30*1024)
	comp := Compress(data, nil)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(comp, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompressFirmware pins the mixed literal/match path on
// structured firmware-like data.
func BenchmarkDecompressFirmware(b *testing.B) {
	data := bytes.Repeat([]byte("MODULE lora_demodulator PORT(clk, rst_n, iq_in, sym_out); "), 530)[:30*1024]
	comp := Compress(data, nil)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(comp, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}
