package lzo

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Decompress must never panic on arbitrary input: it is the parser on the
// OTA receive path, fed from radio packets.
func TestDecompressNeverPanicsOnGarbage(t *testing.T) {
	f := func(stream []byte, outLen uint16) bool {
		out, err := Decompress(stream, int(outLen)%4096)
		// Either a clean error or output of exactly the requested size.
		return err != nil || len(out) == int(outLen)%4096
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecompressNeverPanicsOnMutatedStreams(t *testing.T) {
	// Start from valid streams and flip bytes: every mutation must either
	// decode to the right length or fail cleanly.
	rng := rand.New(rand.NewSource(42))
	orig := make([]byte, 4096)
	for i := 0; i < len(orig); i += 7 {
		orig[i] = byte(rng.Intn(256))
	}
	comp := Compress(orig, nil)
	for trial := 0; trial < 2000; trial++ {
		mut := append([]byte(nil), comp...)
		for flips := 0; flips <= trial%4; flips++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		out, err := Decompress(mut, len(orig))
		if err == nil && len(out) != len(orig) {
			t.Fatalf("trial %d: wrong length with no error", trial)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		stored := Store(data)
		// Overhead bound: one token per 128 bytes.
		if len(stored) > len(data)+len(data)/128+2 {
			return false
		}
		out, err := Decompress(stored, len(data))
		return err == nil && bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStoreBlocksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	img := make([]byte, 100000)
	rng.Read(img)
	blocks := StoreBlocks(img, 30*1024)
	out, err := DecompressBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, img) {
		t.Fatal("stored blocks mismatch")
	}
}

func TestStoreBlocksPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	StoreBlocks([]byte{1}, -1)
}

// FuzzDecompressLimit drives the decompressor the way the OTA receive
// path does, with the stream, declared length and cap all off the air: it
// must never panic, an accepted output must be exactly outLen ≤ maxLen
// bytes, and Compress of that output must decode back to it.
func FuzzDecompressLimit(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	sparse := make([]byte, 8<<10) // bitstream-like: mostly unused frames
	for i := 0; i < len(sparse)/8; i++ {
		sparse[rng.Intn(len(sparse))] = byte(rng.Intn(256))
	}
	noise := make([]byte, 4<<10)
	rng.Read(noise)
	for _, img := range [][]byte{
		make([]byte, 30<<10),
		bytes.Repeat([]byte("MODULE lora_demodulator PORT(clk, rst_n, iq_in, sym_out); "), 530)[:30<<10],
		sparse,
		noise,
		[]byte("tinysdr"),
	} {
		comp := Compress(img, nil)
		n := uint16(len(img))
		f.Add(comp, n, n)
		f.Add(comp, n, n/2) // declared length over the cap
	}
	f.Fuzz(func(t *testing.T, src []byte, outLen, maxLen uint16) {
		out, err := DecompressLimit(src, int(outLen), int(maxLen))
		if err != nil {
			return
		}
		if len(out) != int(outLen) || outLen > maxLen {
			t.Fatalf("accepted %d bytes for outLen %d, maxLen %d", len(out), outLen, maxLen)
		}
		back, err := DecompressLimit(Compress(out, nil), len(out), len(out))
		if err != nil || !bytes.Equal(back, out) {
			t.Fatalf("Compress of the accepted output does not decode back (err %v)", err)
		}
	})
}
