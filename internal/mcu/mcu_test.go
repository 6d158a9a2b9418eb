package mcu

import (
	"testing"
	"time"

	"github.com/uwsdr/tinysdr/internal/power"
	"github.com/uwsdr/tinysdr/internal/sim"
)

func newTestMCU() (*MCU, *power.PMU) {
	p := power.NewPMU(sim.NewClock())
	return New(p), p
}

func TestStateTransitionsUpdatePower(t *testing.T) {
	m, p := newTestMCU()
	active := p.Ledger().Power("mcu")
	if active != activePowerW {
		t.Fatalf("boot draw %v W, want the active %v W", active, activePowerW)
	}
	m.SetState(StateLPM3)
	sleep := p.Ledger().Power("mcu")
	if sleep >= active {
		t.Errorf("LPM3 draw %v >= active %v", sleep, active)
	}
	if sleep > 5e-6 {
		t.Errorf("LPM3 draw %v W, want < 5 µW", sleep)
	}
	m.SetState(StateIdle)
	if got := p.Ledger().Power("mcu"); got <= sleep || got >= active {
		t.Errorf("idle draw %v not between LPM3 and active", got)
	}
}

func TestStateString(t *testing.T) {
	if StateLPM3.String() != "LPM3" || StateActive.String() != "active" {
		t.Error("state names wrong")
	}
	if State(9).String() == "active" {
		t.Error("unknown state must not alias")
	}
}

func TestSRAMBudget(t *testing.T) {
	m, _ := newTestMCU()
	// The OTA decompressor allocates one 30 kB block — must fit.
	if err := m.AllocSRAM(30 * 1024); err != nil {
		t.Fatalf("30 kB block rejected: %v", err)
	}
	// A full 579 kB bitstream cannot fit — this is why the OTA protocol
	// compresses per-block (§3.4).
	if err := m.AllocSRAM(579 * 1024); err == nil {
		t.Fatal("579 kB allocation must fail on a 64 kB part")
	}
	m.FreeSRAM(30 * 1024)
	if m.sramUsed != 0 {
		t.Errorf("SRAM used = %d after free", m.sramUsed)
	}
}

func TestSRAMFreeValidation(t *testing.T) {
	m, _ := newTestMCU()
	defer func() {
		if recover() == nil {
			t.Fatal("over-free must panic")
		}
	}()
	m.FreeSRAM(1)
}

func TestAllocNegative(t *testing.T) {
	m, _ := newTestMCU()
	if err := m.AllocSRAM(-5); err == nil {
		t.Fatal("negative alloc accepted")
	}
}

func TestProgramBudget(t *testing.T) {
	m, _ := newTestMCU()
	// Paper: MCU programs are ≈78 kB — well within 256 kB.
	if err := m.LoadProgram(78 * 1024); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(300 * 1024); err == nil {
		t.Fatal("oversized program accepted")
	}
}

func TestMACFootprintFitsComfortably(t *testing.T) {
	// §5.2: TTN MAC + radio control + PMU + decompressor take 18% of MCU
	// resources. Verify an 18%-of-flash program plus a 30 kB SRAM block
	// leaves most of the part free.
	m, _ := newTestMCU()
	if err := m.LoadProgram(FlashSize * 18 / 100); err != nil {
		t.Fatal(err)
	}
	if err := m.AllocSRAM(30 * 1024); err != nil {
		t.Fatal(err)
	}
	if free := SRAMSize - m.sramUsed; free < SRAMSize/2 {
		t.Errorf("only %d bytes SRAM free", free)
	}
}

func TestExecTime(t *testing.T) {
	if got := ExecTime(48_000_000); got != time.Second {
		t.Errorf("48M cycles = %v, want 1s", got)
	}
	if got := ExecTime(0); got != 0 {
		t.Errorf("0 cycles = %v", got)
	}
}

func TestDecompressTimeMeetsPaperBudget(t *testing.T) {
	// §5.3: decompressing received files takes at most 450 ms.
	d := DecompressTime(579 * 1024)
	if d > 450*time.Millisecond {
		t.Errorf("full bitstream decompress = %v, exceeds 450 ms budget", d)
	}
	if d < 200*time.Millisecond {
		t.Errorf("decompress = %v, implausibly fast for a Cortex-M4F", d)
	}
}
