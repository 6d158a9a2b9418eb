package phy

import (
	"testing"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/lora"
	"github.com/uwsdr/tinysdr/internal/radio"
)

// TestScenarioSymbolDemodZeroAllocs pins the composed-scenario symbol-demod
// hot path at zero heap allocations per trial: one Reset plus ApplyInto of
// a fading + CFO + interferer + noise chain, then the aligned symbol demod
// that the fig11 SER sweep runs.
func TestScenarioSymbolDemodZeroAllocs(t *testing.T) {
	p := lora.DefaultParams()
	mod, err := lora.NewModulator(p)
	if err != nil {
		t.Fatal(err)
	}
	demod, err := lora.NewDemodulator(p)
	if err != nil {
		t.Fatal(err)
	}
	shifts := []int{37, 129, 5, 201}
	sig, err := mod.ModulateSymbols(shifts)
	if err != nil {
		t.Fatal(err)
	}
	interf, err := mod.ModulateSymbols([]int{88, 12})
	if err != nil {
		t.Fatal(err)
	}
	sc := channel.NewScenario(
		channel.NewGain(-110),
		channel.NewFlatFading(10),
		channel.NewCFO(100, 50, 10, p.SampleRate()),
		channel.NewInterferer("lora", interf, -120, 256),
		channel.NewNoise(-116),
	)
	rx := make([]complex128, len(sig))
	dst := make([]int, 0, len(shifts))
	sc.Reset(1, 0)
	demod.DemodAlignedSymbolsInto(dst, sc.ApplyInto(rx, sig)) // warm scratch
	trial := 0
	if n := testing.AllocsPerRun(50, func() {
		sc.Reset(1, trial)
		trial++
		demod.DemodAlignedSymbolsInto(dst, sc.ApplyInto(rx, sig))
	}); n != 0 {
		t.Errorf("scenario+demod allocates %.1f/op, want 0", n)
	}
}

// TestModulateIntoSteadyStateReusesBuffer verifies the ModulateInto side of
// the zero-alloc contract: once the waveform buffer has grown, re-modulating
// the same packet reuses it (the registry modem's waveform path performs no
// per-packet waveform allocation).
func TestModulateIntoSteadyStateReusesBuffer(t *testing.T) {
	m, err := lora.NewModem(lora.DefaultParams(), radio.SX1276Profile())
	if err != nil {
		t.Fatal(err)
	}
	buf, err := m.ModulateInto(nil, goldenPayload)
	if err != nil {
		t.Fatal(err)
	}
	again, err := m.ModulateInto(buf, goldenPayload)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &buf[0] {
		t.Error("ModulateInto reallocated a sufficient buffer")
	}
}
