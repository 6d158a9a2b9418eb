package ota

import (
	"fmt"
	"sync"
	"time"

	"github.com/uwsdr/tinysdr/internal/flash"
	"github.com/uwsdr/tinysdr/internal/fpga"
	"github.com/uwsdr/tinysdr/internal/lzo"
	"github.com/uwsdr/tinysdr/internal/mcu"
	"github.com/uwsdr/tinysdr/internal/radio"
	"github.com/uwsdr/tinysdr/internal/sim"
)

// Flash layout for the OTA system (the 8 MB MX25R6435F holds multiple
// firmware images so nodes can switch protocols without re-transfer, §3.1.2).
const (
	// BootRegion holds the active FPGA bitstream the FPGA boots from.
	BootRegion = 0x000000
	// StagingRegion receives the compressed update stream.
	StagingRegion = 0x0A0000
	// MCURegion holds the staged MCU firmware.
	MCURegion = 0x740000
	// RegionSize bounds each firmware region.
	RegionSize = 0x0A0000
)

// Node is the device-side OTA engine: it owns the backbone radio, writes
// received chunks straight to flash ("considering the LoRa radio takes more
// power than the MCU, we immediately write the data to flash", §3.4), and
// performs the decompress-and-reprogram sequence on Finish.
type Node struct {
	ID       uint16
	Clock    *sim.Clock
	Backbone *radio.SX1276
	MCU      *mcu.MCU
	Flash    *flash.Flash
	FPGA     *fpga.FPGA

	manifest   *Manifest
	received   []bool
	haveAll    bool
	updateBusy bool
}

// NewNode wires a node from its hardware models.
func NewNode(id uint16, clock *sim.Clock, bb *radio.SX1276, m *mcu.MCU, fl *flash.Flash, fp *fpga.FPGA) *Node {
	return &Node{ID: id, Clock: clock, Backbone: bb, MCU: m, Flash: fl, FPGA: fp}
}

// HandleProgramRequest processes a program-request frame addressed to this
// node: it validates the manifest, erases the staging region, and enters
// update mode. It returns the ready frame to transmit.
func (n *Node) HandleProgramRequest(f *Frame) (*Frame, error) {
	if f.Type != FrameProgramRequest {
		return nil, fmt.Errorf("ota: node got %v, want program-request", f.Type)
	}
	if f.Device != n.ID {
		return nil, fmt.Errorf("ota: request for device %d at node %d", f.Device, n.ID)
	}
	var m Manifest
	if err := m.UnmarshalBinary(f.Payload); err != nil {
		return nil, err
	}
	// The manifest comes off the air: bound the flash layout it implies
	// to the staging and target regions before touching flash.
	if m.StreamSize > RegionSize {
		return nil, fmt.Errorf("ota: stream of %d bytes exceeds staging region", m.StreamSize)
	}
	if m.ImageSize > RegionSize {
		return nil, fmt.Errorf("ota: image of %d bytes exceeds firmware region", m.ImageSize)
	}
	chunk := uint32(m.ChunkSize)
	if want := (m.StreamSize + chunk - 1) / chunk; uint32(m.NumPackets) != want {
		return nil, fmt.Errorf("ota: %d packets for a %d-byte stream in %d-byte chunks, want %d",
			m.NumPackets, m.StreamSize, m.ChunkSize, want)
	}
	// Erase the staging region. The erase runs during the scheduled-wake
	// window the AP's request grants (§3.4), so it costs no transfer
	// time in the session accounting.
	if err := n.Flash.Erase(StagingRegion, int(m.StreamSize)); err != nil {
		return nil, err
	}
	n.manifest = &m
	n.received = make([]bool, m.NumPackets)
	n.haveAll = false
	n.updateBusy = true
	return &Frame{Type: FrameReady, Device: n.ID}, nil
}

// HandleData processes one data frame: it stores the chunk and returns the
// ACK to send. Duplicate chunks are acknowledged without rewriting. Frames
// addressed to BroadcastAddr are accepted by every node in update mode (the
// §7 broadcast phase); unicast frames for another node are still rejected.
func (n *Node) HandleData(f *Frame) (*Frame, error) {
	if err := n.store(f); err != nil {
		return nil, err
	}
	return &Frame{Type: FrameAck, Device: n.ID, Seq: f.Seq}, nil
}

// store is HandleData without the ACK, which the broadcast protocol never
// sends: the sequence and layout checks, then the flash write of a chunk
// not yet received.
func (n *Node) store(f *Frame) error {
	if !n.updateBusy {
		return fmt.Errorf("ota: data frame outside update")
	}
	if f.Type != FrameData || (f.Device != n.ID && f.Device != BroadcastAddr) {
		return fmt.Errorf("ota: unexpected frame %v for %d", f.Type, f.Device)
	}
	if int(f.Seq) >= len(n.received) {
		return fmt.Errorf("ota: sequence %d beyond manifest %d", f.Seq, len(n.received))
	}
	off := int(f.Seq) * int(n.manifest.ChunkSize)
	if len(f.Payload) > int(n.manifest.ChunkSize) || off+len(f.Payload) > int(n.manifest.StreamSize) {
		return fmt.Errorf("ota: %d-byte chunk %d outside the %d-byte stream in %d-byte chunks",
			len(f.Payload), f.Seq, n.manifest.StreamSize, n.manifest.ChunkSize)
	}
	if !n.received[f.Seq] {
		if err := n.Flash.Program(StagingRegion+off, f.Payload); err != nil {
			return err
		}
		n.Clock.Advance(flash.ProgramTime(len(f.Payload)))
		n.received[f.Seq] = true
	}
	return nil
}

// Reboot models a node crash: the device restarts with all in-progress
// update state lost (the staging flash keeps its bytes, but the node no
// longer knows a transfer was underway and must be re-announced). The
// chaos harness calls it when the fault plan crashes a node mid-campaign.
func (n *Node) Reboot() {
	n.manifest = nil
	n.received = nil
	n.haveAll = false
	n.updateBusy = false
	n.MCU.SetState(mcu.StateIdle)
}

// InUpdate reports whether the node is inside an announced transfer.
func (n *Node) InUpdate() bool { return n.updateBusy }

// Missing returns the chunk sequence numbers the node has not received, in
// ascending order — the NACK bitmap the self-healing repair protocol polls
// for. A node outside an update reports nil (it needs re-announce, not
// repair).
func (n *Node) Missing() []int {
	if !n.updateBusy || n.received == nil {
		return nil
	}
	var out []int
	for seq, ok := range n.received {
		if !ok {
			out = append(out, seq)
		}
	}
	return out
}

// Complete reports whether every chunk has been received.
func (n *Node) Complete() bool {
	if n.received == nil {
		return false
	}
	for _, ok := range n.received {
		if !ok {
			return false
		}
	}
	return true
}

// finishBuffers is the host storage of one Finish: the staged stream read
// back from flash, and the one BlockSize buffer every block decompresses
// through.
type finishBuffers struct {
	stream, block []byte
}

// finishPool shares finishBuffers between the Finish calls of a fleet.
var finishPool = sync.Pool{New: func() any {
	return &finishBuffers{block: make([]byte, BlockSize)}
}}

// Finish executes the §3.4 end-of-update sequence: turn the backbone radio
// off, decompress block-by-block through a 30 kB SRAM buffer back into the
// target region of flash, then reprogram the FPGA (or stage MCU firmware).
// design carries the resource-model object the bitstream encodes; hardware
// reads it from the image itself.
func (n *Node) Finish(design *fpga.Design) (DecompressStats, error) {
	var stats DecompressStats
	if !n.updateBusy || n.manifest == nil {
		return stats, fmt.Errorf("ota: finish outside update")
	}
	if !n.Complete() {
		return stats, fmt.Errorf("ota: finish with missing chunks")
	}
	// Radio off during decompression (§3.4).
	if _, err := n.Backbone.Transition(radio.StateSleep); err != nil {
		return stats, err
	}
	bufs := finishPool.Get().(*finishBuffers)
	defer finishPool.Put(bufs)
	size := int(n.manifest.StreamSize)
	if cap(bufs.stream) < size {
		bufs.stream = make([]byte, size)
	}
	stream := bufs.stream[:size]
	if err := n.Flash.ReadInto(stream, StagingRegion); err != nil {
		return stats, err
	}
	blocks, err := DeserializeBlocks(stream)
	if err != nil {
		return stats, err
	}

	// One 30 kB SRAM working buffer (§3.4): every block decompresses
	// through bufs.block.
	if err := n.MCU.AllocSRAM(BlockSize); err != nil {
		return stats, err
	}
	defer n.MCU.FreeSRAM(BlockSize)
	n.MCU.SetState(mcu.StateActive)
	defer n.MCU.SetState(mcu.StateIdle)

	// Erase the target region. The firmware interleaves this with packet
	// reception using the MX25R's program/erase suspend (35 ms sector
	// erases hide entirely inside 60 ms packet windows), so by Finish it
	// has already completed and adds no wall time.
	target := BootRegion
	if n.manifest.Target == TargetMCU {
		target = MCURegion
	}
	if err := n.Flash.Erase(target, int(n.manifest.ImageSize)); err != nil {
		return stats, err
	}

	addr := target
	for i, b := range blocks {
		raw, err := lzo.DecompressInto(bufs.block, b.Data, b.RawLen, BlockSize)
		if err != nil {
			return stats, fmt.Errorf("ota: block %d: %w", i, err)
		}
		d := mcu.DecompressTime(b.RawLen)
		n.Clock.Advance(d)
		stats.DecompressTime += d
		if err := n.Flash.Program(addr, raw); err != nil {
			return stats, err
		}
		w := flash.ProgramTime(len(raw))
		n.Clock.Advance(w)
		stats.FlashTime += w
		addr += len(raw)
	}
	stats.ImageBytes = addr - target

	// Reprogram.
	switch n.manifest.Target {
	case TargetFPGA:
		d, err := n.FPGA.Configure(design)
		if err != nil {
			return stats, err
		}
		n.Clock.Advance(d)
		stats.ReprogramTime = d
	case TargetMCU:
		if err := n.MCU.LoadProgram(int(n.manifest.ImageSize)); err != nil {
			return stats, err
		}
		// Self-programming MCU flash at its write rate.
		d := flash.ProgramTime(int(n.manifest.ImageSize))
		n.Clock.Advance(d)
		stats.ReprogramTime = d
	}
	n.updateBusy = false
	return stats, nil
}

// VerifyImage compares the staged image in flash against want.
func (n *Node) VerifyImage(want []byte, target Target) error {
	region := BootRegion
	if target == TargetMCU {
		region = MCURegion
	}
	got, err := n.Flash.Read(region, len(want))
	if err != nil {
		return err
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("ota: image mismatch at byte %d", i)
		}
	}
	return nil
}

// DecompressStats reports the node-side finish phase.
type DecompressStats struct {
	// DecompressTime is CPU time in the miniLZO decompressor alone — the
	// quantity the paper bounds at 450 ms.
	DecompressTime time.Duration
	// FlashTime is spent writing the decompressed image back to flash.
	FlashTime time.Duration
	// ReprogramTime is the FPGA configuration (or MCU flash) time.
	ReprogramTime time.Duration
	// ImageBytes is the installed image size.
	ImageBytes int
}
