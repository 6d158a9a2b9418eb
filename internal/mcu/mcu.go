// Package mcu models the MSP432P401R microcontroller on tinySDR: its sleep
// states, memory budgets, and a cycle-cost model for on-board computation
// such as the miniLZO decompression of OTA updates.
//
// The MCU is the always-powered controller of the platform (power domain V1):
// it runs the MAC layers, drives every SPI peripheral, performs power
// management, and orchestrates OTA reprogramming.
package mcu

import (
	"fmt"
	"time"

	"github.com/uwsdr/tinysdr/internal/power"
)

// MSP432P401R budgets (§3.1.1).
const (
	// SRAMSize is the on-chip SRAM: 64 KB.
	SRAMSize = 64 * 1024
	// FlashSize is the on-chip flash for MCU programs: 256 KB.
	FlashSize = 256 * 1024
	// ClockHz is the Cortex-M4F core clock.
	ClockHz = 48e6
)

// State is an MCU operating state.
type State int

const (
	// StateActive is the full-speed run state (CPU + peripherals).
	StateActive State = iota
	// StateIdle is a wait-for-interrupt state with peripherals clocked:
	// the MCU's posture while DMA/SPI move data (e.g. OTA reception).
	StateIdle
	// StateLPM3 is the deep sleep state: RTC wakeup timer only. Entering
	// LPM3 is what enables the platform's 30 µW system sleep (§5.1).
	StateLPM3
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateIdle:
		return "idle"
	case StateLPM3:
		return "LPM3"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Per-state battery draw. Active/idle values are calibrated together with
// the FPGA and radio models against the paper's end-to-end measurements;
// LPM3 is the datasheet's ~0.85 µA RTC-mode current at the battery rail.
const (
	activePowerW = 12e-3
	idlePowerW   = 7e-3
	lpm3PowerW   = 3.1e-6
)

// DecompressCyclesPerByte is the cost of the miniLZO decompressor on the
// Cortex-M4F. At 48 MHz this yields ≈0.42 s for a full 579 kB bitstream,
// matching the paper's "maximum of 450 ms" (§5.3).
const DecompressCyclesPerByte = 35

// MCU is one MSP432 instance.
type MCU struct {
	sink     power.Sink
	sramUsed int
}

// New returns an MCU in the active state reporting power to sink.
func New(sink power.Sink) *MCU {
	m := &MCU{sink: sink}
	m.SetState(StateActive)
	return m
}

// SetState transitions the MCU and updates its power draw.
func (m *MCU) SetState(s State) {
	switch s {
	case StateActive:
		m.sink.SetPower("mcu", activePowerW)
	case StateIdle:
		m.sink.SetPower("mcu", idlePowerW)
	case StateLPM3:
		m.sink.SetPower("mcu", lpm3PowerW)
	default:
		panic(fmt.Sprintf("mcu: unknown state %d", int(s)))
	}
}

// AllocSRAM reserves n bytes of working memory, enforcing the 64 KB budget
// that shapes the OTA block size (§3.4: 30 kB blocks "that will fit in the
// MCU memory").
func (m *MCU) AllocSRAM(n int) error {
	if n < 0 {
		return fmt.Errorf("mcu: negative allocation %d", n)
	}
	if m.sramUsed+n > SRAMSize {
		return fmt.Errorf("mcu: SRAM exhausted: %d + %d > %d", m.sramUsed, n, SRAMSize)
	}
	m.sramUsed += n
	return nil
}

// FreeSRAM releases n bytes.
func (m *MCU) FreeSRAM(n int) {
	if n < 0 || n > m.sramUsed {
		panic(fmt.Sprintf("mcu: bad free of %d with %d used", n, m.sramUsed))
	}
	m.sramUsed -= n
}

// LoadProgram loads a firmware image of n bytes into MCU flash, enforcing
// the 256 KB budget the OTA system assumes.
func (m *MCU) LoadProgram(n int) error {
	if n < 0 || n > FlashSize {
		return fmt.Errorf("mcu: program of %d bytes exceeds %d-byte flash", n, FlashSize)
	}
	return nil
}

// ExecTime converts a cycle count to run time at the 48 MHz core clock.
func ExecTime(cycles int64) time.Duration {
	return time.Duration(float64(cycles) / ClockHz * float64(time.Second))
}

// DecompressTime returns the CPU time to LZO-decompress n output bytes.
func DecompressTime(n int) time.Duration {
	return ExecTime(int64(n) * DecompressCyclesPerByte)
}
