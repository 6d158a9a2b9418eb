// Package flash models the non-volatile storage on the tinySDR board: the
// MX25R6435F 8 MB SPI NOR flash that holds FPGA bitstreams and MCU firmware
// for the OTA system, and the microSD card reachable from the FPGA.
//
// The NOR model enforces real flash semantics: writes can only clear bits,
// so regions must be erased (to 0xFF) before programming, and erases happen
// in 4 KB sectors. Timing helpers expose transfer durations; models never
// advance the simulation clock themselves.
//
// Storage is sparse and recycled: a device holds only the sectors it has
// programmed since their last erase, and Erase returns those sectors'
// storage to a pool that every device draws its new sectors from. A host
// that erases the devices it is done with (fleet campaigns erase each
// cell's nodes once their results are out) programs the next ones
// without allocating.
package flash

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// MX25R6435F geometry and interface timing.
const (
	// Size is the flash capacity: 64 Mbit = 8 MB.
	Size = 8 * 1024 * 1024
	// SectorSize is the erase granularity.
	SectorSize = 4096
	// PageSize is the program granularity.
	PageSize = 256

	// spiWriteRate is the SPI programming throughput used by the OTA path.
	spiWriteRate = 8e6 // bits/s effective, incl. page program time
	// quadReadRate is the quad-SPI read rate the FPGA boots from:
	// 62 MHz x 4 lines (§3.4), which yields the 22 ms configuration time.
	quadReadRate = 62e6 * 4 // bits/s
	// eraseTimePerSector is the typical 4 KB sector erase time.
	eraseTimePerSector = 35 * time.Millisecond

	// StandbyPowerW is the deep-power-down draw.
	StandbyPowerW = 1.3e-6
	// ActivePowerW is the draw during program/erase.
	ActivePowerW = 15e-3
	// ReadPowerW is the draw during quad-SPI read.
	ReadPowerW = 10e-3
)

// Flash is one MX25R6435F device. Storage is sector-sparse: a sector with
// no entry in the map is in the erased state (all 0xFF), so a fleet of
// thousands of simulated nodes costs memory proportional to the bytes each
// node actually stages, not 8 MB per chip.
type Flash struct {
	sectors map[int]*[SectorSize]byte
	faults  WriteFaults
}

// WriteFaults injects program-time faults — the chaos harness's flash
// seam (implemented by fault.NodeFaults). FaultWrite is consulted once per
// Program call after NOR validation: a non-nil error fails the write with
// the device untouched; a non-negative flipByte flips the given bit of the
// stored copy (bit-rot), silently corrupting what was written without
// touching the caller's buffer.
type WriteFaults interface {
	FaultWrite(addr int, data []byte) (flipByte, flipBit int, err error)
}

// erasedSector is one sector in the erased state: new sectors are filled
// from it and reads of sparse sectors copy from it.
var erasedSector = [SectorSize]byte(bytes.Repeat([]byte{0xFF}, SectorSize))

// sectorPool recycles sector storage across devices: Erase puts back the
// sectors it reverts and new sectors are taken from it. A pooled sector
// holds whatever it last stored until it is filled.
var sectorPool = sync.Pool{New: func() any { return new([SectorSize]byte) }}

// New returns a flash chip in the erased state (all 0xFF), as shipped.
func New() *Flash {
	return &Flash{sectors: make(map[int]*[SectorSize]byte)}
}

// SetWriteFaults installs (or, with nil, removes) the program-time fault
// injector. Reads and erases are unaffected.
func (f *Flash) SetWriteFaults(w WriteFaults) { f.faults = w }

// sector returns the backing storage for one sector, taking it from the
// pool on first touch. A new sector is filled erased unless whole is set:
// the caller is about to overwrite all of it.
func (f *Flash) sector(idx int, whole bool) *[SectorSize]byte {
	s, ok := f.sectors[idx]
	if !ok {
		s = sectorPool.Get().(*[SectorSize]byte)
		if !whole {
			*s = erasedSector
		}
		f.sectors[idx] = s
	}
	return s
}

func (f *Flash) bounds(addr, n int) error {
	if addr < 0 || n < 0 || addr+n > Size {
		return fmt.Errorf("flash: access [%#x, %#x) outside %d-byte device", addr, addr+n, Size)
	}
	return nil
}

// Erase resets whole sectors covering [addr, addr+n) to 0xFF. addr must be
// sector-aligned, mirroring the real command set.
func (f *Flash) Erase(addr, n int) error {
	if addr%SectorSize != 0 {
		return fmt.Errorf("flash: erase address %#x not sector-aligned", addr)
	}
	if err := f.bounds(addr, n); err != nil {
		return err
	}
	end := addr + n
	if rem := end % SectorSize; rem != 0 {
		end += SectorSize - rem
	}
	if end > Size {
		end = Size
	}
	// Erased sectors revert to the sparse representation and their storage
	// goes back to the pool. A range wider than the populated map (a whole
	// device) walks the map instead of every index.
	first, last := addr/SectorSize, end/SectorSize
	if last-first > len(f.sectors) {
		for idx, s := range f.sectors {
			if idx >= first && idx < last {
				delete(f.sectors, idx)
				sectorPool.Put(s)
			}
		}
		return nil
	}
	for idx := first; idx < last; idx++ {
		if s, ok := f.sectors[idx]; ok {
			delete(f.sectors, idx)
			sectorPool.Put(s)
		}
	}
	return nil
}

// Program writes data at addr. NOR semantics: each written byte may only
// clear bits of the stored byte; programming over non-erased data that would
// require setting a bit fails, catching missing-erase protocol bugs.
func (f *Flash) Program(addr int, data []byte) error {
	if err := f.bounds(addr, len(data)); err != nil {
		return err
	}
	// Validate the whole write against NOR semantics before mutating, so a
	// rejected program leaves the device untouched.
	err := forSpans(addr, len(data), func(idx, in, off, span int) error {
		s, ok := f.sectors[idx]
		if !ok {
			return nil // erased sector accepts anything
		}
		stored, want := s[in:in+span], data[off:off+span]
		// Test a word at a time; the byte loop finds the first offending
		// byte from the first failing word on, and checks the tail.
		i := 0
		for ; i+8 <= span; i += 8 {
			if binary.LittleEndian.Uint64(want[i:])&^binary.LittleEndian.Uint64(stored[i:]) != 0 {
				break
			}
		}
		for ; i < span; i++ {
			if cur, b := stored[i], want[i]; cur&b != b {
				return fmt.Errorf("flash: program at %#x requires erase (stored %#02x, want %#02x)",
					addr+off+i, cur, b)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	flipByte, flipBit := -1, 0
	if f.faults != nil {
		if flipByte, flipBit, err = f.faults.FaultWrite(addr, data); err != nil {
			return err
		}
	}
	if err := forSpans(addr, len(data), func(idx, in, off, span int) error {
		copy(f.sector(idx, span == SectorSize)[in:in+span], data[off:off+span])
		return nil
	}); err != nil {
		return err
	}
	// Bit-rot corrupts the stored copy only, never the caller's buffer.
	if flipByte >= 0 && flipByte < len(data) {
		at := addr + flipByte
		f.sector(at/SectorSize, false)[at%SectorSize] ^= 1 << (flipBit & 7)
	}
	return nil
}

// Read copies n bytes starting at addr into a new buffer.
func (f *Flash) Read(addr, n int) ([]byte, error) {
	if err := f.bounds(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	return out, f.ReadInto(out, addr)
}

// ReadInto fills dst with the len(dst) bytes starting at addr. It
// allocates nothing.
func (f *Flash) ReadInto(dst []byte, addr int) error {
	if err := f.bounds(addr, len(dst)); err != nil {
		return err
	}
	return forSpans(addr, len(dst), func(idx, in, off, span int) error {
		s, ok := f.sectors[idx]
		if !ok {
			s = &erasedSector
		}
		copy(dst[off:off+span], s[in:in+span])
		return nil
	})
}

// forSpans decomposes the device range [addr, addr+n) into per-sector
// spans, calling fn with the sector index, the offset into that sector,
// the offset into the caller's buffer, and the span length. It stops at
// the first error.
func forSpans(addr, n int, fn func(idx, in, off, span int) error) error {
	for off := 0; off < n; {
		idx := (addr + off) / SectorSize
		in := (addr + off) % SectorSize
		span := SectorSize - in
		if span > n-off {
			span = n - off
		}
		if err := fn(idx, in, off, span); err != nil {
			return err
		}
		off += span
	}
	return nil
}

// ProgramTime returns how long SPI programming of n bytes takes.
func ProgramTime(n int) time.Duration {
	return time.Duration(float64(n*8) / spiWriteRate * float64(time.Second))
}

// QuadReadTime returns how long a quad-SPI read of n bytes takes — the
// dominant term of the FPGA's 22 ms boot.
func QuadReadTime(n int) time.Duration {
	return time.Duration(float64(n*8) / quadReadRate * float64(time.Second))
}
