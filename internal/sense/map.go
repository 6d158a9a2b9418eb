package sense

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Occupancy map wire format (all integers little-endian):
//
//	magic   "TSOM"
//	version u16  (1)
//	rate    u64  (float64 bits, positive finite)
//	threshQ i16  (occupancy threshold, quarter-dB code)
//	ticks   u32  (1..MaxMapTicks)
//	bins    u16  (1..MaxReportBins; ticks×bins ≤ MaxMapCells)
//	reports u64
//	cells   ticks×bins × { count u32, occupied u32, sumQ i64,
//	                       sumSqQ u64, minQ i16, maxQ i16 }
//	crc     u32  (IEEE CRC-32 of everything above)
//
// Parsing is strict and canonical like the report format: dimensions are
// validated against hard caps before allocation, an empty cell must be
// all-zero, and any accepted input re-marshals to the identical bytes.
const (
	mapMagic   = "TSOM"
	mapVersion = 1

	// MaxMapTicks bounds a map's time rows.
	MaxMapTicks = 1 << 20
	// MaxMapCells bounds the total grid (512 MiB of cells), the real
	// allocation backstop since ticks×bins is what a hostile map declares.
	MaxMapCells = 1 << 24

	cellWireSize = 4 + 4 + 8 + 8 + 2 + 2
)

// Cell accumulates one (tick, bin) grid point's statistics across every
// report that covered it. The moments are exact integers over the
// quarter-dB code domain — the streaming-stats design choice that makes
// aggregation order-free: unlike floating-point Welford updates, integer
// sums are commutative AND associative, so any ingest order or worker
// count produces bit-identical cells (sums of ≤2^15-magnitude codes over
// ≤2^32 reports stay exact in 64 bits).
type Cell struct {
	// Count is how many reports covered the cell.
	Count uint32
	// Occupied is how many of them read at or above the map's threshold.
	Occupied uint32
	// SumQ and SumSqQ are the exact first and second moments of the
	// quarter-dB codes.
	SumQ   int64
	SumSqQ uint64
	// MinQ and MaxQ are the extreme codes seen (zero when Count is 0).
	MinQ, MaxQ int16
}

// add folds one code into the cell.
func (c *Cell) add(code, threshQ int16) {
	if c.Count == 0 || code < c.MinQ {
		c.MinQ = code
	}
	if c.Count == 0 || code > c.MaxQ {
		c.MaxQ = code
	}
	c.Count++
	if code >= threshQ {
		c.Occupied++
	}
	c.SumQ += int64(code)
	c.SumSqQ += uint64(int64(code) * int64(code))
}

// valid reports whether the cell may appear on the wire: an uncovered
// cell is all-zero, no more reports are occupied than covered it, and a
// covered cell's extremes are ordered. Marshal and unmarshal share it, so
// every map that marshals also parses back.
func (c *Cell) valid() bool {
	if c.Count == 0 {
		return *c == Cell{}
	}
	return c.Occupied <= c.Count && c.MinQ <= c.MaxQ
}

// Occupancy is the fraction of covering reports at or above threshold.
func (c Cell) Occupancy() float64 {
	if c.Count == 0 {
		return 0
	}
	return float64(c.Occupied) / float64(c.Count)
}

// Map is a time×frequency occupancy grid: Ticks rows of Bins cells, row
// tick t holding the fleet's aggregated view of the band during tick t.
type Map struct {
	// Ticks and Bins are the grid dimensions.
	Ticks, Bins int
	// SampleRate is the sensed bandwidth; reports must match it exactly.
	SampleRate float64
	// ThresholdQ is the occupancy threshold as a quarter-dB code.
	ThresholdQ int16
	// Reports counts every report absorbed.
	Reports uint64
	// Cells is the row-major grid: Cells[t*Bins+b].
	Cells []Cell
}

// NewMap returns an empty grid. The threshold is given in dBm and
// quantized to the code domain so map and report occupancy agree exactly.
func NewMap(ticks, bins int, sampleRate, thresholdDBm float64) (*Map, error) {
	if ticks < 1 || ticks > MaxMapTicks {
		return nil, fmt.Errorf("sense: map of %d ticks outside [1, %d]", ticks, MaxMapTicks)
	}
	if bins < 1 || bins > MaxReportBins {
		return nil, fmt.Errorf("sense: map of %d bins outside [1, %d]", bins, MaxReportBins)
	}
	if ticks*bins > MaxMapCells {
		return nil, fmt.Errorf("sense: map of %d cells over %d", ticks*bins, MaxMapCells)
	}
	if !(sampleRate > 0) || math.IsInf(sampleRate, 0) {
		return nil, fmt.Errorf("sense: map sample rate %g", sampleRate)
	}
	return &Map{
		Ticks: ticks, Bins: bins,
		SampleRate: sampleRate,
		ThresholdQ: QuantizeDBm(thresholdDBm),
		Cells:      make([]Cell, ticks*bins),
	}, nil
}

// Cell returns the grid point for (tick, bin); it panics out of range.
func (m *Map) Cell(tick, bin int) *Cell {
	if tick < 0 || tick >= m.Ticks || bin < 0 || bin >= m.Bins {
		panic("sense: map cell out of range")
	}
	return &m.Cells[tick*m.Bins+bin]
}

// Absorb folds one report into the grid. The report's geometry must
// match: same sample rate, same bin count, tick inside the grid.
func (m *Map) Absorb(r *Report) error {
	if r.SampleRate != m.SampleRate {
		return fmt.Errorf("sense: report rate %g on a %g map", r.SampleRate, m.SampleRate)
	}
	if len(r.Codes) != m.Bins {
		return fmt.Errorf("sense: report of %d bins on a %d-bin map", len(r.Codes), m.Bins)
	}
	if int(r.Tick) >= m.Ticks {
		return fmt.Errorf("sense: report tick %d on a %d-tick map", r.Tick, m.Ticks)
	}
	row := m.Cells[int(r.Tick)*m.Bins : (int(r.Tick)+1)*m.Bins]
	for i, code := range r.Codes {
		row[i].add(code, m.ThresholdQ)
	}
	m.Reports++
	return nil
}

// Summary condenses the grid for status endpoints and logs.
type Summary struct {
	// Ticks, Bins and Reports mirror the map.
	Ticks   int    `json:"ticks"`
	Bins    int    `json:"bins"`
	Reports uint64 `json:"reports"`
	// ThresholdDBm is the occupancy threshold.
	ThresholdDBm float64 `json:"threshold_dbm"`
	// Occupancy is the mean occupancy over covered cells.
	Occupancy float64 `json:"occupancy"`
	// PeakDBm is the strongest power any report saw, -Inf when empty.
	PeakDBm float64 `json:"peak_dbm"`
}

// Summarize computes the map's Summary.
func (m *Map) Summarize() Summary {
	s := Summary{
		Ticks: m.Ticks, Bins: m.Bins, Reports: m.Reports,
		ThresholdDBm: CodeToDBm(m.ThresholdQ),
		PeakDBm:      math.Inf(-1),
	}
	var covered, occ float64
	for i := range m.Cells {
		c := &m.Cells[i]
		if c.Count == 0 {
			continue
		}
		covered++
		occ += c.Occupancy()
		if p := CodeToDBm(c.MaxQ); p > s.PeakDBm {
			s.PeakDBm = p
		}
	}
	if covered > 0 {
		s.Occupancy = occ / covered
	}
	return s
}

// MarshalBinary renders the canonical wire form.
func (m *Map) MarshalBinary() ([]byte, error) {
	if m.Ticks < 1 || m.Ticks > MaxMapTicks || m.Bins < 1 || m.Bins > MaxReportBins ||
		m.Ticks*m.Bins > MaxMapCells || len(m.Cells) != m.Ticks*m.Bins {
		return nil, fmt.Errorf("sense: marshaling %d×%d map with %d cells", m.Ticks, m.Bins, len(m.Cells))
	}
	if !(m.SampleRate > 0) || math.IsInf(m.SampleRate, 0) {
		return nil, fmt.Errorf("sense: map sample rate %g", m.SampleRate)
	}
	out := make([]byte, 0, 36+cellWireSize*len(m.Cells))
	out = append(out, mapMagic...)
	out = binary.LittleEndian.AppendUint16(out, mapVersion)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(m.SampleRate))
	out = binary.LittleEndian.AppendUint16(out, uint16(m.ThresholdQ))
	out = binary.LittleEndian.AppendUint32(out, uint32(m.Ticks))
	out = binary.LittleEndian.AppendUint16(out, uint16(m.Bins))
	out = binary.LittleEndian.AppendUint64(out, m.Reports)
	for i := range m.Cells {
		c := &m.Cells[i]
		if !c.valid() {
			return nil, fmt.Errorf("sense: malformed cell %d %+v", i, *c)
		}
		out = binary.LittleEndian.AppendUint32(out, c.Count)
		out = binary.LittleEndian.AppendUint32(out, c.Occupied)
		out = binary.LittleEndian.AppendUint64(out, uint64(c.SumQ))
		out = binary.LittleEndian.AppendUint64(out, c.SumSqQ)
		out = binary.LittleEndian.AppendUint16(out, uint16(c.MinQ))
		out = binary.LittleEndian.AppendUint16(out, uint16(c.MaxQ))
	}
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out)), nil
}

// UnmarshalBinary parses and validates a map. It never allocates
// proportionally to the declared grid before validating it against the
// package caps.
func (m *Map) UnmarshalBinary(data []byte) error {
	rd := reader{data: data}
	if string(rd.take(4)) != mapMagic {
		return fmt.Errorf("sense: bad map magic")
	}
	if v := rd.u16(); v != mapVersion {
		return fmt.Errorf("sense: map version %d, want %d", v, mapVersion)
	}
	rate := math.Float64frombits(rd.u64())
	threshQ := int16(rd.u16())
	ticks := int(rd.u32())
	bins := int(rd.u16())
	reports := rd.u64()
	if rd.err != nil {
		return rd.err
	}
	if !(rate > 0) || math.IsInf(rate, 0) {
		return fmt.Errorf("sense: map sample rate %g", rate)
	}
	if ticks == 0 || ticks > MaxMapTicks {
		return fmt.Errorf("sense: map of %d ticks outside [1, %d]", ticks, MaxMapTicks)
	}
	if bins == 0 || bins > MaxReportBins {
		return fmt.Errorf("sense: map of %d bins outside [1, %d]", bins, MaxReportBins)
	}
	if ticks*bins > MaxMapCells {
		return fmt.Errorf("sense: map of %d cells over %d", ticks*bins, MaxMapCells)
	}
	if want := cellWireSize*ticks*bins + 4; len(rd.data)-rd.off != want {
		return fmt.Errorf("sense: %d trailing map bytes, want %d", len(rd.data)-rd.off, want)
	}
	cells := make([]Cell, ticks*bins)
	for i := range cells {
		c := Cell{
			Count: rd.u32(), Occupied: rd.u32(),
			SumQ: int64(rd.u64()), SumSqQ: rd.u64(),
			MinQ: int16(rd.u16()), MaxQ: int16(rd.u16()),
		}
		if !c.valid() {
			return fmt.Errorf("sense: malformed cell %d %+v", i, c)
		}
		cells[i] = c
	}
	crc := rd.u32()
	if rd.err != nil {
		return rd.err
	}
	if got := crc32.ChecksumIEEE(data[:len(data)-4]); got != crc {
		return fmt.Errorf("sense: map CRC %08x, want %08x", crc, got)
	}
	*m = Map{
		Ticks: ticks, Bins: bins,
		SampleRate: rate, ThresholdQ: threshQ,
		Reports: reports, Cells: cells,
	}
	return nil
}
