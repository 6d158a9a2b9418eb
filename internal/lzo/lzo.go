// Package lzo implements the miniLZO-class block compressor tinySDR's OTA
// system uses (§3.4). Like miniLZO it is a byte-oriented LZ77 with a small
// hash-table match finder, a 64 KB window, unbounded run encoding, and a
// decompressor that needs no memory beyond the output buffer — the property
// that lets the MSP432 decompress 30 kB blocks in SRAM.
//
// The exact Oberhumer bit layout is proprietary-adjacent folklore; this
// package uses a documented equivalent encoding with the same asymptotics
// (long zero runs collapse to ~0.4%, incompressible data expands by <1%),
// which is what the §5.3 update-size results depend on.
//
// Stream format:
//
//	0x00..0x7F  literal run: token+1 bytes follow verbatim (1..128)
//	0x80..0xFE  match: length = (token & 0x7F) + minMatch, then 2-byte
//	            little-endian distance (1..65535); matches may overlap
//	            the output (distance < length encodes runs)
//	0xFF        extended match: varint length extension follows (each
//	            0xFF byte adds 255, a terminator byte adds its value),
//	            then the 2-byte distance
package lzo

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	minMatch = 3
	// tokenMaxLen is the longest match encodable without extension.
	tokenMaxLen = minMatch + 0x7E // 129
	maxDistance = 65535
	hashBits    = 14
	hashSize    = 1 << hashBits
)

// MaxCompressedSize returns the worst-case output size for n input bytes:
// one token per 128 literals plus slack.
func MaxCompressedSize(n int) int { return n + n/128 + 16 }

func hash4(v uint32) uint32 {
	return (v * 2654435761) >> (32 - hashBits)
}

// Compress appends the compressed form of src to dst and returns it.
// A nil dst allocates a right-sized buffer.
func Compress(src []byte, dst []byte) []byte {
	if dst == nil {
		dst = make([]byte, 0, MaxCompressedSize(len(src)))
	}
	var table [hashSize]int32
	for i := range table {
		table[i] = -1
	}
	litStart := 0
	i := 0
	flushLiterals := func(end int) {
		for litStart < end {
			run := end - litStart
			if run > 128 {
				run = 128
			}
			dst = append(dst, byte(run-1))
			dst = append(dst, src[litStart:litStart+run]...)
			litStart += run
		}
	}
	for i+4 <= len(src) {
		v := binary.LittleEndian.Uint32(src[i:])
		h := hash4(v)
		cand := table[h]
		table[h] = int32(i)
		if cand >= 0 && i-int(cand) <= maxDistance && src[cand] == src[i] && src[cand+1] == src[i+1] && src[cand+2] == src[i+2] {
			// Extend the match.
			length := minMatch
			for i+length < len(src) && src[int(cand)+length] == src[i+length] {
				length++
			}
			flushLiterals(i)
			dist := i - int(cand)
			if length <= tokenMaxLen {
				dst = append(dst, 0x80|byte(length-minMatch))
			} else {
				dst = append(dst, 0xFF)
				rem := length - tokenMaxLen
				for rem >= 255 {
					dst = append(dst, 0xFF)
					rem -= 255
				}
				dst = append(dst, byte(rem))
			}
			dst = append(dst, byte(dist), byte(dist>>8))
			i += length
			litStart = i
			continue
		}
		i++
	}
	flushLiterals(len(src))
	return dst
}

// Store encodes src as a literal-only stream: a valid stream for Decompress
// that performs no compression (≈0.8% size overhead). It is the baseline
// for measuring what miniLZO buys the OTA system.
func Store(src []byte) []byte {
	out := make([]byte, 0, len(src)+len(src)/128+1)
	for off := 0; off < len(src); off += 128 {
		end := min(off+128, len(src))
		out = append(out, byte(end-off-1))
		out = append(out, src[off:end]...)
	}
	return out
}

// StoreBlocks splits src into blockSize segments stored without compression.
func StoreBlocks(src []byte, blockSize int) []Block {
	if blockSize <= 0 {
		panic("lzo: block size must be positive")
	}
	var out []Block
	for start := 0; start < len(src); start += blockSize {
		end := min(start+blockSize, len(src))
		out = append(out, Block{RawLen: end - start, Data: Store(src[start:end])})
	}
	return out
}

// ErrCorrupt reports a malformed compressed stream.
var ErrCorrupt = errors.New("lzo: corrupt stream")

// initialCap bounds the speculative output allocation: the declared output
// length is attacker-controlled metadata (a manifest field), so nothing is
// allocated beyond this until the stream actually produces bytes.
const initialCap = 64 << 10

// Decompress expands src into a buffer of exactly outLen bytes. It fails on
// malformed streams, wrong lengths, or references outside the window. Memory
// use is the output buffer alone, matching the MCU constraint of §3.4; the
// buffer grows with the decoded stream rather than trusting outLen up
// front, so a hostile length cannot demand a multi-GB allocation before the
// first token is parsed. Callers that know their block size should prefer
// DecompressLimit and pass it as the cap.
func Decompress(src []byte, outLen int) ([]byte, error) {
	return DecompressLimit(src, outLen, outLen)
}

// DecompressLimit is Decompress with an explicit ceiling on the declared
// output length: a corrupt or hostile header whose outLen exceeds maxLen
// (the caller's known block size, ota.BlockSize) is rejected before any
// allocation or parsing. It returns a fresh buffer; DecompressInto decodes
// into the caller's.
func DecompressLimit(src []byte, outLen, maxLen int) ([]byte, error) {
	return DecompressInto(nil, src, outLen, maxLen)
}

// DecompressInto is DecompressLimit decoding into dst's storage: the
// output overwrites dst from its start, whatever dst held, and is returned
// as dst[:outLen]. When cap(dst) >= outLen it allocates nothing — one
// block-sized buffer serves every block of an image, as the MCU's single
// SRAM working buffer does. A smaller dst is replaced by a buffer that
// grows with the decoded stream, as for DecompressLimit. dst must not
// overlap src. On error it returns nil, and dst's contents are
// unspecified.
func DecompressInto(dst, src []byte, outLen, maxLen int) ([]byte, error) {
	if outLen < 0 || outLen > maxLen {
		return nil, fmt.Errorf("lzo: declared output %d outside [0, %d]: %w", outLen, maxLen, ErrCorrupt)
	}
	out := dst[:0]
	if c := min(outLen, initialCap); cap(out) < c {
		out = make([]byte, 0, c)
	}
	i := 0
	for i < len(src) {
		token := src[i]
		i++
		if token < 0x80 {
			run := int(token) + 1
			if i+run > len(src) || len(out)+run > outLen {
				return nil, ErrCorrupt
			}
			out = grow(out, run, outLen)
			out = append(out, src[i:i+run]...)
			i += run
			continue
		}
		length := int(token&0x7F) + minMatch
		if token == 0xFF {
			length = tokenMaxLen
			for {
				if i >= len(src) {
					return nil, ErrCorrupt
				}
				b := src[i]
				i++
				length += int(b)
				if b != 0xFF {
					break
				}
			}
		}
		if i+2 > len(src) {
			return nil, ErrCorrupt
		}
		dist := int(src[i]) | int(src[i+1])<<8
		i += 2
		if dist == 0 || dist > len(out) {
			return nil, ErrCorrupt
		}
		if len(out)+length > outLen {
			return nil, ErrCorrupt
		}
		out = matchCopy(grow(out, length, outLen), dist, length)
	}
	if len(out) != outLen {
		return nil, fmt.Errorf("lzo: decompressed %d bytes, want %d", len(out), outLen)
	}
	return out, nil
}

// grow ensures capacity for n more bytes, doubling up to the validated
// output length so growth is amortized without ever over-allocating past
// what the stream is entitled to produce.
func grow(out []byte, n, outLen int) []byte {
	if cap(out)-len(out) >= n {
		return out
	}
	newCap := min(max(2*cap(out), len(out)+n), outLen)
	bigger := make([]byte, len(out), newCap)
	copy(bigger, out)
	return bigger
}

// doubleMinLen is the shortest match whose period under 8 bytes is worth
// doubling: shorter ones copy byte by byte.
const doubleMinLen = 64

// matchCopy extends out by length bytes copied from dist bytes back. out
// must already have the capacity (see grow). Non-overlapping matches are a
// single copy; overlapping ones (runs with period dist) seed one period and
// double it, so a long zero-run match costs O(log) copies instead of one
// byte per iteration — the node reassembly hot path, where an image's zero
// tail is one distance-1 match. A short match with a period under 8 bytes
// stays byte-wise: the doubling bookkeeping costs more than it saves there.
func matchCopy(out []byte, dist, length int) []byte {
	n := len(out)
	out = out[:n+length]
	start := n - dist
	switch {
	case dist >= length:
		copy(out[n:], out[start:start+length])
	case dist >= 8 || length >= doubleMinLen:
		copy(out[n:n+dist], out[start:n])
		for c := dist; c < length; {
			chunk := min(c, length-c)
			copy(out[n+c:n+c+chunk], out[n:n+c])
			c += chunk
		}
	default:
		for k := 0; k < length; k++ {
			out[n+k] = out[start+k]
		}
	}
	return out
}

// Block is one independently compressed segment of a firmware image.
type Block struct {
	// RawLen is the uncompressed length.
	RawLen int
	// Data is the compressed bytes.
	Data []byte
}

// CompressBlocks splits src into blockSize segments and compresses each
// independently — the §3.4 scheme that bounds MCU memory to one block.
func CompressBlocks(src []byte, blockSize int) []Block {
	if blockSize <= 0 {
		panic("lzo: block size must be positive")
	}
	var out []Block
	for start := 0; start < len(src); start += blockSize {
		end := min(start+blockSize, len(src))
		out = append(out, Block{RawLen: end - start, Data: Compress(src[start:end], nil)})
	}
	return out
}

// DecompressBlocks reassembles an image from its blocks.
func DecompressBlocks(blocks []Block) ([]byte, error) {
	var out []byte
	for i, b := range blocks {
		raw, err := Decompress(b.Data, b.RawLen)
		if err != nil {
			return nil, fmt.Errorf("lzo: block %d: %w", i, err)
		}
		out = append(out, raw...)
	}
	return out, nil
}

// CompressedSize sums the payload bytes of a block set.
func CompressedSize(blocks []Block) int {
	var n int
	for _, b := range blocks {
		n += len(b.Data)
	}
	return n
}
