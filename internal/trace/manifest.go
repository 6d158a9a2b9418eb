package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/uwsdr/tinysdr/internal/phy"
)

// Binary manifest format (all integers little-endian):
//
//	magic    "TSIQ"
//	version  u16   (1)
//	phyLen   u8    + phy name bytes
//	seed     u64   (int64 bits)
//	rate     u64   (float64 bits, positive finite)
//	bits     u8    (1..16)
//	scenLen  u16   + scenario spec bytes
//	pldLen   u16   + payload bytes
//	failures u32
//	rssi     u64   (float64 bits)
//	npkts    u32
//	packets  npkts × { hash u64, samples u32, fullScale u64 }
//	failBits ceil(npkts/8), packet k's loss in bit k&7 of byte k>>3,
//	         padding bits zero
//	crc      u32   (IEEE CRC-32 of everything above)
//
// Parsing is strict and canonical: any accepted input re-marshals to the
// identical bytes (the fuzz harness pins this), every length is validated
// against hard caps before allocation, and trailing bytes, CRC mismatches
// or non-zero padding are corruption.
const (
	manifestMagic   = "TSIQ"
	manifestVersion = 1

	// MaxPacketSamples bounds one packet's length (16 MiB of codes): far
	// above any real waveform, low enough that a hostile manifest cannot
	// demand a huge allocation.
	MaxPacketSamples = 1 << 22
	// MaxPackets bounds a trace's packet count.
	MaxPackets = 1 << 20
)

// Manifest is the stored description of one trace: its Meta, the
// per-packet blob references, and the recorded run's loss record — the
// baseline replay is verified against.
type Manifest struct {
	Meta
	// Failures is the recorded run's lost-packet count (equal to the set
	// bits of Failed; the redundancy is validated on load).
	Failures int
	// RSSIdBm is the recorded run's mean received power, accumulated in
	// packet order exactly as phy.Link.Run accumulates it, so a replay
	// must reproduce its bits.
	RSSIdBm float64
	// Packets references each packet's blob in transmit order.
	Packets []Packet
	// Failed records per-packet loss of the recorded run.
	Failed []bool
}

// Stats reconstructs the recorded run's phy.Stats.
func (m *Manifest) Stats() phy.Stats {
	n := len(m.Packets)
	return phy.Stats{
		Packets:  n,
		Failures: m.Failures,
		PER:      float64(m.Failures) / float64(n),
		RSSIdBm:  m.RSSIdBm,
	}
}

// MarshalBinary renders the canonical wire form.
func (m *Manifest) MarshalBinary() ([]byte, error) {
	if len(m.PHY) == 0 || len(m.PHY) > 255 {
		return nil, fmt.Errorf("trace: phy name of %d bytes", len(m.PHY))
	}
	if m.Bits < 1 || m.Bits > 16 {
		return nil, fmt.Errorf("trace: quantization %d bits outside [1, 16]", m.Bits)
	}
	if !(m.SampleRate > 0) || math.IsInf(m.SampleRate, 0) {
		return nil, fmt.Errorf("trace: sample rate %g", m.SampleRate)
	}
	if len(m.Scenario) > 65535 || len(m.Payload) > 65535 {
		return nil, fmt.Errorf("trace: scenario/payload too long (%d/%d)", len(m.Scenario), len(m.Payload))
	}
	n := len(m.Packets)
	if n == 0 || n > MaxPackets {
		return nil, fmt.Errorf("trace: %d packets outside [1, %d]", n, MaxPackets)
	}
	if len(m.Failed) != n {
		return nil, fmt.Errorf("trace: %d fail flags for %d packets", len(m.Failed), n)
	}
	failures := 0
	for _, f := range m.Failed {
		if f {
			failures++
		}
	}
	if failures != m.Failures {
		return nil, fmt.Errorf("trace: Failures %d but %d flags set", m.Failures, failures)
	}

	out := make([]byte, 0, 64+len(m.PHY)+len(m.Scenario)+len(m.Payload)+20*n+(n+7)/8)
	out = append(out, manifestMagic...)
	out = binary.LittleEndian.AppendUint16(out, manifestVersion)
	out = append(out, byte(len(m.PHY)))
	out = append(out, m.PHY...)
	out = binary.LittleEndian.AppendUint64(out, uint64(m.Seed))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(m.SampleRate))
	out = append(out, byte(m.Bits))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(m.Scenario)))
	out = append(out, m.Scenario...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(m.Payload)))
	out = append(out, m.Payload...)
	out = binary.LittleEndian.AppendUint32(out, uint32(m.Failures))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(m.RSSIdBm))
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	for _, p := range m.Packets {
		if p.Samples < 0 || p.Samples > MaxPacketSamples {
			return nil, fmt.Errorf("trace: packet of %d samples outside [0, %d]", p.Samples, MaxPacketSamples)
		}
		if !(p.FullScale > 0) || math.IsInf(p.FullScale, 0) {
			return nil, fmt.Errorf("trace: packet full scale %g", p.FullScale)
		}
		out = binary.LittleEndian.AppendUint64(out, p.Hash)
		out = binary.LittleEndian.AppendUint32(out, uint32(p.Samples))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.FullScale))
	}
	fail := make([]byte, (n+7)/8)
	for k, f := range m.Failed {
		if f {
			fail[k>>3] |= 1 << (k & 7)
		}
	}
	out = append(out, fail...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out)), nil
}

// UnmarshalBinary parses and validates a manifest. It never allocates
// proportionally to declared counts before validating them against the
// package caps.
func (m *Manifest) UnmarshalBinary(data []byte) error {
	r := reader{data: data}
	if string(r.take(4)) != manifestMagic {
		return fmt.Errorf("trace: bad manifest magic")
	}
	if v := r.u16(); v != manifestVersion {
		return fmt.Errorf("trace: manifest version %d, want %d", v, manifestVersion)
	}
	phyLen := int(r.u8())
	if phyLen == 0 {
		return fmt.Errorf("trace: empty phy name")
	}
	phyName := string(r.take(phyLen))
	seed := int64(r.u64())
	rate := math.Float64frombits(r.u64())
	bits := int(r.u8())
	scen := string(r.take(int(r.u16())))
	pld := append([]byte(nil), r.take(int(r.u16()))...)
	failures := int(r.u32())
	rssiBits := r.u64()
	n := int(r.u32())
	if r.err != nil {
		return r.err
	}
	if !(rate > 0) || math.IsInf(rate, 0) {
		return fmt.Errorf("trace: sample rate %g", rate)
	}
	if bits < 1 || bits > 16 {
		return fmt.Errorf("trace: quantization %d bits outside [1, 16]", bits)
	}
	if n == 0 || n > MaxPackets {
		return fmt.Errorf("trace: %d packets outside [1, %d]", n, MaxPackets)
	}
	if failures > n {
		return fmt.Errorf("trace: %d failures over %d packets", failures, n)
	}
	// The remaining length is fully determined now — check it before the
	// per-packet allocation.
	if want := 20*n + (n+7)/8 + 4; len(r.data)-r.off != want {
		return fmt.Errorf("trace: %d trailing bytes, want %d", len(r.data)-r.off, want)
	}
	packets := make([]Packet, n)
	for i := range packets {
		packets[i] = Packet{Hash: r.u64(), Samples: int(r.u32()), FullScale: math.Float64frombits(r.u64())}
		if packets[i].Samples > MaxPacketSamples {
			return fmt.Errorf("trace: packet %d of %d samples over %d", i, packets[i].Samples, MaxPacketSamples)
		}
		if fs := packets[i].FullScale; !(fs > 0) || math.IsInf(fs, 0) {
			return fmt.Errorf("trace: packet %d full scale %g", i, fs)
		}
	}
	fail := r.take((n + 7) / 8)
	failed := make([]bool, n)
	set := 0
	for k := range failed {
		if fail[k>>3]&(1<<(k&7)) != 0 {
			failed[k] = true
			set++
		}
	}
	for b := n; b < 8*len(fail); b++ {
		if fail[b>>3]&(1<<(b&7)) != 0 {
			return fmt.Errorf("trace: non-zero fail-bit padding")
		}
	}
	if set != failures {
		return fmt.Errorf("trace: failures field %d but %d bits set", failures, set)
	}
	crc := r.u32()
	if r.err != nil {
		return r.err
	}
	if got := crc32.ChecksumIEEE(data[:len(data)-4]); got != crc {
		return fmt.Errorf("trace: manifest CRC %08x, want %08x", crc, got)
	}
	*m = Manifest{
		Meta:     Meta{PHY: phyName, Seed: seed, SampleRate: rate, Bits: bits, Scenario: scen, Payload: pld},
		Failures: failures,
		RSSIdBm:  math.Float64frombits(rssiBits),
		Packets:  packets,
		Failed:   failed,
	}
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
			r.err = fmt.Errorf("trace: manifest truncated at byte %d", r.off)
		}
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
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
