package lora

import (
	"bytes"
	"math"
	"testing"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/iq"
)

func mustModem(t *testing.T, p Params) (*Modulator, *Demodulator) {
	t.Helper()
	m, err := NewModulator(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDemodulator(p)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

func TestModulateWaveformLength(t *testing.T) {
	p := DefaultParams()
	m, _ := mustModem(t, p)
	payload := []byte{1, 2, 3}
	sig, err := m.Modulate(payload)
	if err != nil {
		t.Fatal(err)
	}
	sLen := p.NumChips() * p.OSR
	want := (p.PreambleLen+2)*sLen + sLen*9/4 + p.symbolCountFor(len(payload))*sLen
	if len(sig) != want {
		t.Errorf("waveform length = %d, want %d", len(sig), want)
	}
	// Air time consistency: samples / rate == TimeOnAir.
	gotSec := float64(len(sig)) / p.SampleRate()
	wantSec := p.TimeOnAir(len(payload)).Seconds()
	if math.Abs(gotSec-wantSec) > 1e-9 {
		t.Errorf("waveform duration %v s, formula %v s", gotSec, wantSec)
	}
}

func TestModulateConstantEnvelope(t *testing.T) {
	m, _ := mustModem(t, DefaultParams())
	sig, _ := m.Modulate([]byte("abc"))
	for i, x := range sig {
		if r := math.Hypot(real(x), imag(x)); math.Abs(r-1) > 0.01 {
			t.Fatalf("sample %d envelope %v", i, r)
		}
	}
}

func TestLoopbackCleanChannel(t *testing.T) {
	for _, sf := range []int{7, 8, 12} {
		p := Params{SF: sf, BW: 125e3, CR: CR45, PreambleLen: 10, SyncWord: 0x12,
			CRC: true, OSR: 1}
		m, d := mustModem(t, p)
		payload := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x42}
		sig, err := m.Modulate(payload)
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := d.Receive(sig)
		if err != nil {
			t.Fatalf("SF%d: %v", sf, err)
		}
		if !bytes.Equal(pkt.Payload, payload) {
			t.Fatalf("SF%d: payload %x != %x", sf, pkt.Payload, payload)
		}
		if !pkt.CRCOK || !pkt.FECOK {
			t.Fatalf("SF%d: crc=%v fec=%v", sf, pkt.CRCOK, pkt.FECOK)
		}
		if pkt.Header.PayloadLen != len(payload) {
			t.Fatalf("SF%d: header len %d", sf, pkt.Header.PayloadLen)
		}
	}
}

func TestLoopbackWithLeadingAndTrailingNoise(t *testing.T) {
	p := DefaultParams()
	m, d := mustModem(t, p)
	payload := []byte("over-the-air")
	sig, _ := m.Modulate(payload)

	ch := channel.NewAWGN(99, -60)        // quiet channel, strong signal
	lead := ch.Noise(3*p.NumChips() + 37) // unaligned offset
	tail := ch.Noise(2 * p.NumChips())
	buf := append(append(lead, sig.Clone().ScaleToDBm(-30)...), tail...)
	buf.Add(ch.Noise(len(buf)))

	pkt, err := d.Receive(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkt.Payload, payload) {
		t.Fatalf("payload %q != %q", pkt.Payload, payload)
	}
	// Start estimate should land within one symbol of the true start.
	if diff := pkt.StartSample - len(lead); diff < -p.NumChips() || diff > p.NumChips() {
		t.Errorf("start estimate %d, true %d", pkt.StartSample, len(lead))
	}
}

func TestLoopbackAllSampleOffsets(t *testing.T) {
	// The sync must work for any chip offset of the packet within the
	// buffer, not just lucky alignments.
	p := Params{SF: 7, BW: 125e3, CR: CR45, PreambleLen: 10, SyncWord: 0x12,
		CRC: true, OSR: 1}
	m, d := mustModem(t, p)
	payload := []byte{7, 7, 7}
	sig, _ := m.Modulate(payload)
	ch := channel.NewAWGN(5, -70)
	for _, off := range []int{0, 1, 17, 63, 64, 65, 100, 127} {
		buf := make(iq.Samples, off+len(sig)+128)
		copy(buf[off:], sig.Clone().ScaleToDBm(-40))
		buf.Add(ch.Noise(len(buf)))
		pkt, err := d.Receive(buf)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if !bytes.Equal(pkt.Payload, payload) || !pkt.CRCOK {
			t.Fatalf("offset %d: bad decode", off)
		}
	}
}

func TestLoopbackOSR2WithFIR(t *testing.T) {
	// The oversampled path exercises the 14-tap FIR front end.
	p := Params{SF: 8, BW: 125e3, CR: CR46, PreambleLen: 10, SyncWord: 0x12,
		CRC: true, OSR: 2}
	m, d := mustModem(t, p)
	payload := []byte{9, 8, 7, 6}
	sig, _ := m.Modulate(payload)
	ch := channel.NewAWGN(17, -70)
	buf := make(iq.Samples, 512+len(sig)+512)
	copy(buf[512:], sig.Clone().ScaleToDBm(-40))
	buf.Add(ch.Noise(len(buf)))
	pkt, err := d.Receive(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkt.Payload, payload) || !pkt.CRCOK {
		t.Fatal("OSR2 decode failed")
	}
}

func TestReceiveOnPureNoiseFails(t *testing.T) {
	p := DefaultParams()
	_, d := mustModem(t, p)
	ch := channel.NewAWGN(123, -100)
	if _, err := d.Receive(ch.Noise(60 * p.NumChips())); err == nil {
		t.Error("packet decoded from pure noise")
	}
}

func TestReceiveTruncatedPacket(t *testing.T) {
	p := DefaultParams()
	m, d := mustModem(t, p)
	sig, _ := m.Modulate([]byte("truncate me please"))
	if _, err := d.Receive(sig[:len(sig)/2]); err == nil {
		t.Error("truncated packet decoded")
	}
}

func TestDemodAlignedSymbolsExact(t *testing.T) {
	p := DefaultParams()
	m, d := mustModem(t, p)
	shifts := []int{0, 1, 100, 255, 128, 37}
	sig, err := m.ModulateSymbols(shifts)
	if err != nil {
		t.Fatal(err)
	}
	got := d.DemodAlignedSymbols(sig)
	if len(got) != len(shifts) {
		t.Fatalf("got %d symbols", len(got))
	}
	for i := range shifts {
		if got[i] != shifts[i] {
			t.Errorf("symbol %d: %d != %d", i, got[i], shifts[i])
		}
	}
}

func TestModulateSymbolsRejectsOutOfRange(t *testing.T) {
	m, _ := mustModem(t, DefaultParams())
	if _, err := m.ModulateSymbols([]int{256}); err == nil {
		t.Error("out-of-range symbol accepted")
	}
	if _, err := m.ModulateSymbols([]int{-1}); err == nil {
		t.Error("negative symbol accepted")
	}
}

func TestSymbolDemodAtModerateSNR(t *testing.T) {
	// At SNR = -5 dB (5 dB above the SF8 limit) symbol errors must be rare.
	p := DefaultParams()
	m, d := mustModem(t, p)
	rng := newTestRand(314)
	shifts := make([]int, 200)
	for i := range shifts {
		shifts[i] = rng.Intn(p.NumChips())
	}
	sig, _ := m.ModulateSymbols(shifts)
	ch := channel.NewAWGN(7, -116)                            // floor for 125 kHz NF 7
	rx := ch.ApplyInto(make(iq.Samples, len(sig)), sig, -121) // SNR -5 dB
	got := d.DemodAlignedSymbols(rx)
	errs := 0
	for i := range shifts {
		if got[i] != shifts[i] {
			errs++
		}
	}
	if errs > 4 {
		t.Errorf("symbol errors = %d/200 at SNR -5 dB, want <= 4", errs)
	}
}

func TestSymbolDemodFailsFarBelowSensitivity(t *testing.T) {
	// At SNR = -25 dB (15 dB below the limit) demodulation must collapse.
	p := DefaultParams()
	m, d := mustModem(t, p)
	rng := newTestRand(99)
	shifts := make([]int, 100)
	for i := range shifts {
		shifts[i] = rng.Intn(p.NumChips())
	}
	sig, _ := m.ModulateSymbols(shifts)
	ch := channel.NewAWGN(8, -116)
	rx := ch.ApplyInto(make(iq.Samples, len(sig)), sig, -141)
	got := d.DemodAlignedSymbols(rx)
	errs := 0
	for i := range shifts {
		if got[i] != shifts[i] {
			errs++
		}
	}
	if errs < 50 {
		t.Errorf("symbol errors = %d/100 at SNR -25 dB; channel model too optimistic", errs)
	}
}

func TestIdealAndLUTWaveformsBothDecode(t *testing.T) {
	// The SX1276 stand-in (ideal waveform) and the tinySDR LUT datapath
	// must both decode with the same demodulator.
	for _, ideal := range []bool{false, true} {
		p := DefaultParams()
		p.Ideal = ideal
		m, d := mustModem(t, p)
		sig, _ := m.Modulate([]byte{1, 2, 3})
		if _, err := d.Receive(sig); err != nil {
			t.Errorf("ideal=%v: %v", ideal, err)
		}
	}
}

func BenchmarkModulateSF8(b *testing.B) {
	m, _ := NewModulator(DefaultParams())
	payload := make([]byte, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Modulate(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReceiveSF8(b *testing.B) {
	p := DefaultParams()
	m, _ := NewModulator(p)
	d, _ := NewDemodulator(p)
	sig, _ := m.Modulate(make([]byte, 32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Receive(sig); err != nil {
			b.Fatal(err)
		}
	}
}
