package concurrent

import (
	"math/rand"
	"testing"

	"github.com/uwsdr/tinysdr/internal/iq"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/lora"
	"github.com/uwsdr/tinysdr/internal/radio"
)

// paperConfigs returns the §6 experiment setup: both SF8, bandwidths 125
// and 250 kHz, decoded at a common 250 kHz rate.
func paperConfigs() (lora.Params, lora.Params, float64) {
	p1 := lora.Params{SF: 8, BW: 125e3, CR: lora.CR45, PreambleLen: 10, SyncWord: 0x12, CRC: true, OSR: 1}
	p2 := lora.Params{SF: 8, BW: 250e3, CR: lora.CR45, PreambleLen: 10, SyncWord: 0x12, CRC: true, OSR: 1}
	return p1, p2, 250e3
}

func TestNewDecoderValidation(t *testing.T) {
	p1, p2, rate := paperConfigs()
	if _, err := NewDecoder(rate, []lora.Params{p1, p2}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(rate, nil); err == nil {
		t.Error("empty config set accepted")
	}
	// 3x bandwidth multiple is not a power of two.
	p3 := p1
	p3.BW = 125e3
	if _, err := NewDecoder(375e3, []lora.Params{p3}); err == nil {
		t.Error("non-power-of-two rate multiple accepted")
	}
}

func TestSlopesDiffer(t *testing.T) {
	p1, p2, rate := paperConfigs()
	d, err := NewDecoder(rate, []lora.Params{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	// BW250 has 4x the slope of BW125 at equal SF — the orthogonality
	// basis of §6.
	if r := d.Slope(1) / d.Slope(0); r != 4 {
		t.Errorf("slope ratio = %v, want 4", r)
	}
}

func randShifts(rng *rand.Rand, n, numChips int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(numChips)
	}
	return out
}

func countErrors(got, want []int) int {
	errs := 0
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			errs++
		}
	}
	return errs
}

func TestConcurrentSeparationHighSNR(t *testing.T) {
	// Two equal-power concurrent transmissions at high SNR must decode
	// with zero symbol errors on both chains.
	p1, p2, rate := paperConfigs()
	dec, err := NewDecoder(rate, []lora.Params{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	tx1, err := NewTransmitter(rate, p1)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := NewTransmitter(rate, p2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	s1 := randShifts(rng, 20, 256)
	s2 := randShifts(rng, 40, 256) // BW250 symbols are half as long
	w1, _ := tx1.ModulateSymbols(s1)
	w2, _ := tx2.ModulateSymbols(s2)

	floor := channel.NoiseFloorDBm(rate, radio.NoiseFigureDB)
	ch := channel.NewAWGN(2, floor)
	rx := ch.ApplyMulti(len(w1), []iq.Samples{w1, w2}, []float64{-80, -80}, []int{0, 0})

	got := dec.DemodAligned(rx)
	if e := countErrors(got[0], s1); e != 0 {
		t.Errorf("chain 0 (BW125): %d errors at -80 dBm", e)
	}
	if e := countErrors(got[1], s2); e != 0 {
		t.Errorf("chain 1 (BW250): %d errors at -80 dBm", e)
	}
}

func TestConcurrentNearSensitivityLosesFewDB(t *testing.T) {
	// §6/Fig. 15a: concurrent demodulation costs ~2 dB (BW125) and
	// ~0.5 dB (BW250) of sensitivity. At 5 dB above single-link
	// sensitivity, both chains should still be mostly correct.
	p1, p2, rate := paperConfigs()
	dec, _ := NewDecoder(rate, []lora.Params{p1, p2})
	tx1, _ := NewTransmitter(rate, p1)
	tx2, _ := NewTransmitter(rate, p2)
	rng := rand.New(rand.NewSource(3))
	s1 := randShifts(rng, 60, 256)
	s2 := randShifts(rng, 120, 256)
	w1, _ := tx1.ModulateSymbols(s1)
	w2, _ := tx2.ModulateSymbols(s2)

	floor := channel.NoiseFloorDBm(rate, radio.NoiseFigureDB)
	ch := channel.NewAWGN(4, floor)
	sens1 := lora.SensitivityDBm(8, 125e3, radio.NoiseFigureDB)
	rx := ch.ApplyMulti(len(w1), []iq.Samples{w1, w2}, []float64{sens1 + 5, sens1 + 5 + 3}, []int{0, 0})

	got := dec.DemodAligned(rx)
	if e := countErrors(got[0], s1); e > len(s1)/5 {
		t.Errorf("chain 0: %d/%d errors at sensitivity+5", e, len(s1))
	}
	if e := countErrors(got[1], s2); e > len(s2)/5 {
		t.Errorf("chain 1: %d/%d errors", e, len(s2))
	}
}

func TestStrongInterfererDegradesWeakLink(t *testing.T) {
	// Fig. 15b: with BW125 fixed near sensitivity, raising the BW250
	// power far above it must push the BW125 chain into errors — the
	// power-control lesson of §6.
	p1, p2, rate := paperConfigs()
	dec, _ := NewDecoder(rate, []lora.Params{p1, p2})
	tx1, _ := NewTransmitter(rate, p1)
	tx2, _ := NewTransmitter(rate, p2)
	rng := rand.New(rand.NewSource(5))
	s1 := randShifts(rng, 50, 256)
	s2 := randShifts(rng, 100, 256)
	w1, _ := tx1.ModulateSymbols(s1)
	w2, _ := tx2.ModulateSymbols(s2)

	floor := channel.NoiseFloorDBm(rate, radio.NoiseFigureDB)
	weak := lora.SensitivityDBm(8, 125e3, radio.NoiseFigureDB) + 3

	quiet := channel.NewAWGN(6, floor).ApplyMulti(len(w1), []iq.Samples{w1, w2}, []float64{weak, weak - 100}, []int{0, 0})
	loud := channel.NewAWGN(6, floor).ApplyMulti(len(w1), []iq.Samples{w1, w2}, []float64{weak, weak + 25}, []int{0, 0})

	eQuiet := countErrors(dec.DemodAligned(quiet)[0], s1)
	eLoud := countErrors(dec.DemodAligned(loud)[0], s1)
	if eLoud <= eQuiet {
		t.Errorf("strong interferer did not degrade weak link: %d vs %d errors", eLoud, eQuiet)
	}
}

func TestConfigsReportResolvedOSR(t *testing.T) {
	p1, p2, rate := paperConfigs()
	d, _ := NewDecoder(rate, []lora.Params{p1, p2})
	if osr0, osr1 := d.chains[0].params.OSR, d.chains[1].params.OSR; osr0 != 2 || osr1 != 1 {
		t.Errorf("OSRs = %d, %d; want 2, 1", osr0, osr1)
	}
}
