// Package sense is the crowd-sourced spectrum sensing subsystem: fleets
// of simulated mobile nodes measure the band with one Welch estimate over
// each tick's capture, quantize their power spectra into compact binary
// reports, and an aggregator merges thousands of report streams into a
// time×frequency occupancy map.
//
// Everything a node emits is a pure function of (seed, node, tick): no
// wall clock, no global randomness, no cross-tick state — so a sweep's
// occupancy map is byte-identical at any worker count, the property the
// eval experiment and CI pin.
package sense

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Report wire format (all integers little-endian):
//
//	magic   "TSPR"
//	version u16  (1)
//	node    u32
//	tick    u32
//	rate    u64  (float64 bits, positive finite)
//	bins    u16  (1..MaxReportBins)
//	codes   bins × i16 (quarter-dB quantized PSD, DC-centered)
//	crc     u32  (IEEE CRC-32 of everything above)
//
// Parsing is strict and canonical, in the trace-manifest mold: any
// accepted input re-marshals to the identical bytes (the fuzz harness
// pins this), the bin count is validated against a hard cap before
// allocation, and trailing bytes or CRC mismatches are corruption.
const (
	reportMagic   = "TSPR"
	reportVersion = 1

	// MaxReportBins bounds one report's spectrum length (the largest FFT
	// a sensor plausibly runs), so a hostile report cannot demand a huge
	// allocation.
	MaxReportBins = 1 << 12
)

// CodeUnitDB is the quantization step of report power codes: quarter-dB
// ticks, so the full int16 range spans ±8192 dB — far beyond any physical
// power while keeping a 256-bin report at 540 bytes.
const CodeUnitDB = 0.25

// QuantizeDBm maps a power in dBm to its wire code, saturating at the
// int16 range (so -Inf, the empty-spectrum floor, becomes the minimum
// code). NaN also saturates low: an unmeasurable bin reads as floor.
func QuantizeDBm(p float64) int16 {
	q := math.Round(p / CodeUnitDB)
	if !(q > math.MinInt16) { // NaN and -Inf land here
		return math.MinInt16
	}
	if q > math.MaxInt16 {
		return math.MaxInt16
	}
	return int16(q)
}

// CodeToDBm maps a wire code back to dBm.
func CodeToDBm(c int16) float64 { return float64(c) * CodeUnitDB }

// Report is one node's quantized power spectrum for one tick.
type Report struct {
	// Node is the reporting node's index in the fleet.
	Node uint32
	// Tick is the measurement interval index; it selects the occupancy
	// map row the report lands in.
	Tick uint32
	// SampleRate is the measured bandwidth in Hz; the aggregator rejects
	// reports whose rate disagrees with its map.
	SampleRate float64
	// Codes is the quantized PSD, DC-centered like dsp.Spectrum.PowerDBm.
	Codes []int16
}

// WireSize returns the marshaled size of a report with the given bin
// count — what an ingest budget should charge per report.
func WireSize(bins int) int { return 4 + 2 + 4 + 4 + 8 + 2 + 2*bins + 4 }

// MarshalBinary renders the canonical wire form.
func (r *Report) MarshalBinary() ([]byte, error) {
	if len(r.Codes) == 0 || len(r.Codes) > MaxReportBins {
		return nil, fmt.Errorf("sense: report of %d bins outside [1, %d]", len(r.Codes), MaxReportBins)
	}
	if !(r.SampleRate > 0) || math.IsInf(r.SampleRate, 0) {
		return nil, fmt.Errorf("sense: report sample rate %g", r.SampleRate)
	}
	out := make([]byte, 0, WireSize(len(r.Codes)))
	out = append(out, reportMagic...)
	out = binary.LittleEndian.AppendUint16(out, reportVersion)
	out = binary.LittleEndian.AppendUint32(out, r.Node)
	out = binary.LittleEndian.AppendUint32(out, r.Tick)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(r.SampleRate))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(r.Codes)))
	for _, c := range r.Codes {
		out = binary.LittleEndian.AppendUint16(out, uint16(c))
	}
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out)), nil
}

// UnmarshalBinary parses and validates a report. It never allocates
// proportionally to the declared bin count before validating it against
// the package cap.
func (r *Report) UnmarshalBinary(data []byte) error {
	rd := reader{data: data}
	if string(rd.take(4)) != reportMagic {
		return fmt.Errorf("sense: bad report magic")
	}
	if v := rd.u16(); v != reportVersion {
		return fmt.Errorf("sense: report version %d, want %d", v, reportVersion)
	}
	node := rd.u32()
	tick := rd.u32()
	rate := math.Float64frombits(rd.u64())
	bins := int(rd.u16())
	if rd.err != nil {
		return rd.err
	}
	if !(rate > 0) || math.IsInf(rate, 0) {
		return fmt.Errorf("sense: report sample rate %g", rate)
	}
	if bins == 0 || bins > MaxReportBins {
		return fmt.Errorf("sense: report of %d bins outside [1, %d]", bins, MaxReportBins)
	}
	// The remaining length is fully determined now — check it before the
	// codes allocation.
	if want := 2*bins + 4; len(rd.data)-rd.off != want {
		return fmt.Errorf("sense: %d trailing report bytes, want %d", len(rd.data)-rd.off, want)
	}
	codes := make([]int16, bins)
	for i := range codes {
		codes[i] = int16(rd.u16())
	}
	crc := rd.u32()
	if rd.err != nil {
		return rd.err
	}
	if got := crc32.ChecksumIEEE(data[:len(data)-4]); got != crc {
		return fmt.Errorf("sense: report CRC %08x, want %08x", crc, got)
	}
	*r = Report{Node: node, Tick: tick, SampleRate: rate, Codes: codes}
	return nil
}

// reader is a bounds-checked cursor; the first short read poisons it.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) take(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.data) {
		if r.err == nil {
			r.err = fmt.Errorf("sense: wire data truncated at byte %d", r.off)
		}
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
