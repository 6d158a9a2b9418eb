package lora

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/uwsdr/tinysdr/internal/channel"
)

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{SF: 5, BW: 125e3, CR: CR45, PreambleLen: 10, OSR: 1},
		{SF: 13, BW: 125e3, CR: CR45, PreambleLen: 10, OSR: 1},
		{SF: 8, BW: 123e3, CR: CR45, PreambleLen: 10, OSR: 1},
		{SF: 8, BW: 125e3, CR: 0, PreambleLen: 10, OSR: 1},
		{SF: 8, BW: 125e3, CR: 5, PreambleLen: 10, OSR: 1},
		{SF: 8, BW: 125e3, CR: CR45, PreambleLen: 2, OSR: 1},
		{SF: 8, BW: 125e3, CR: CR45, PreambleLen: 10, OSR: 3},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}

	// Every packet carries the explicit header: SF7..12 validate, and SF6,
	// which would need the implicit one, fails Validate and NewModem.
	p := DefaultParams()
	for sf := 7; sf <= 12; sf++ {
		p.SF = sf
		if err := p.Validate(); err != nil {
			t.Errorf("SF%d rejected: %v", sf, err)
		}
	}
	p.SF = 6
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "implicit header") {
		t.Errorf("SF6: Validate = %v, want an error naming the implicit header", err)
	}
	if _, err := NewModem(p, channel.RadioProfile{}); err == nil {
		t.Error("SF6 params accepted by NewModem")
	}
}

func TestSymbolTimingAndRates(t *testing.T) {
	p := DefaultParams() // SF8 BW125
	// Tsym = 256/125k = 2.048 ms.
	tsym := symbolTime(p)
	if d := tsym - 2048*time.Microsecond; d < -1 || d > 1 {
		t.Errorf("symbol duration = %v, want 2.048 ms", tsym)
	}
	// Raw rate = 8 bits per symbol = 3906.25 b/s; the paper's "3.12 kbps"
	// is this rate after 4/5 coding.
	raw := float64(p.SF) / tsym.Seconds()
	if math.Abs(raw-3906.25) > 0.01 {
		t.Errorf("raw rate = %v, want 3906.25", raw)
	}
	if coded := raw * 4 / 5; math.Abs(coded-3125) > 0.01 {
		t.Errorf("coded rate = %v, want 3125 (paper: 3.12 kbps)", coded)
	}
}

func TestPayloadSymbolsMatchesSemtechFormula(t *testing.T) {
	// Known value: SF7, CR 4/5, 10-byte payload, CRC, explicit -> 28.
	p := Params{SF: 7, BW: 125e3, CR: CR45, PreambleLen: 8, SyncWord: 0x12,
		CRC: true, OSR: 1}
	if got := p.payloadSymbols(10); got != 28 {
		t.Errorf("SF7 CR1 PL10 = %d symbols, want 28", got)
	}
}

func TestBlockLayoutEqualsAirtimeFormula(t *testing.T) {
	// The actual block layout must produce exactly the symbol count the
	// Semtech air-time formula predicts, for every configuration.
	f := func(plRaw uint8, sfRaw, crRaw uint8, crcOn, ldro bool) bool {
		sf := 7 + int(sfRaw)%6 // 7..12
		cr := CodingRate(1 + int(crRaw)%4)
		p := Params{SF: sf, BW: 125e3, CR: cr, PreambleLen: 8, SyncWord: 0x12,
			CRC: crcOn, LowDataRateOptimize: ldro, OSR: 1}
		return p.symbolCountFor(int(plRaw)) == p.payloadSymbols(int(plRaw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodeBlocksSymbolRange(t *testing.T) {
	p := DefaultParams()
	syms, err := p.encodeBlocks(bytes.Repeat([]byte{0xA7}, 50))
	if err != nil {
		t.Fatal(err)
	}
	if len(syms) != p.symbolCountFor(50) {
		t.Errorf("symbol count = %d, want %d", len(syms), p.symbolCountFor(50))
	}
	for i, s := range syms {
		if s < 0 || s >= p.NumChips() {
			t.Fatalf("symbol %d = %d out of range", i, s)
		}
	}
	// Header-block symbols are reduced rate: multiples of 4.
	for i := 0; i < 8; i++ {
		if syms[i]%4 != 0 {
			t.Errorf("header symbol %d = %d not a multiple of 4", i, syms[i])
		}
	}
}

func TestEncodeRejectsOversizedPayload(t *testing.T) {
	p := DefaultParams()
	if _, err := p.encodeBlocks(make([]byte, 256)); err == nil {
		t.Error("256-byte payload accepted")
	}
}

func TestFrameRoundTripCleanSymbols(t *testing.T) {
	// Encode then decode through the block layer with no channel errors,
	// across SFs, CRs and payload sizes.
	for _, sf := range []int{7, 8, 10, 12} {
		for _, cr := range []CodingRate{CR45, CR46, CR47, CR48} {
			for _, n := range []int{0, 1, 3, 17, 64, 255} {
				p := Params{SF: sf, BW: 125e3, CR: cr, PreambleLen: 10, SyncWord: 0x12,
					CRC: true, OSR: 1}
				payload := make([]byte, n)
				rng := newTestRand(int64(sf*1000 + int(cr)*100 + n))
				rng.Read(payload)

				syms, err := p.encodeBlocks(payload)
				if err != nil {
					t.Fatal(err)
				}
				nibs, fecOK, err := p.decodeFirstBlock(syms[:8])
				if err != nil || !fecOK {
					t.Fatalf("SF%d %v n=%d: first block %v fec=%v", sf, cr, n, err, fecOK)
				}
				hdr, err := parseHeader(nibs)
				if err != nil {
					t.Fatalf("SF%d %v n=%d: header: %v", sf, cr, n, err)
				}
				if hdr.PayloadLen != n || hdr.CR != cr || !hdr.HasCRC {
					t.Fatalf("header = %+v", hdr)
				}
				body, fecOK2 := p.decodePayloadBlocks(syms[8:])
				if !fecOK2 {
					t.Fatal("payload FEC flagged on clean symbols")
				}
				got, crcOK, err := p.assembleNibbles(append(nibs[headerNibbleCount:], body...), n)
				if err != nil {
					t.Fatal(err)
				}
				if !crcOK {
					t.Fatalf("SF%d %v n=%d: CRC failed on clean round trip", sf, cr, n)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("SF%d %v n=%d: payload mismatch", sf, cr, n)
				}
			}
		}
	}
}

func TestFrameSurvivesOneCorruptSymbolAtCR48(t *testing.T) {
	// With CR 4/8, one fully corrupted payload symbol must be corrected.
	p := Params{SF: 9, BW: 125e3, CR: CR48, PreambleLen: 10, SyncWord: 0x12,
		CRC: true, OSR: 1}
	payload := []byte("tinysdr!")
	syms, err := p.encodeBlocks(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one symbol of the second block (payload region).
	syms[9] ^= 0b110100
	nibs, _, err := p.decodeFirstBlock(syms[:8])
	if err != nil {
		t.Fatal(err)
	}
	body, _ := p.decodePayloadBlocks(syms[8:])
	got, crcOK, err := p.assembleNibbles(append(nibs[headerNibbleCount:], body...), len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !crcOK || !bytes.Equal(got, payload) {
		t.Errorf("CR 4/8 failed to correct a single corrupt symbol: crc=%v got=%q", crcOK, got)
	}
}

func TestHeaderRobustToPlusMinusOneBinError(t *testing.T) {
	// Reduced-rate header symbols ignore the bottom two bits, so ±1 bin
	// errors must not affect the header at all.
	p := DefaultParams()
	syms, err := p.encodeBlocks([]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		syms[i] = (syms[i] + 1) % p.NumChips()
	}
	nibs, fecOK, err := p.decodeFirstBlock(syms[:8])
	if err != nil || !fecOK {
		t.Fatalf("first block: %v fec=%v", err, fecOK)
	}
	hdr, err := parseHeader(nibs)
	if err != nil {
		t.Fatalf("header after ±1 bin errors: %v", err)
	}
	if hdr.PayloadLen != 3 {
		t.Errorf("payload len = %d", hdr.PayloadLen)
	}
}

func TestParseHeaderRejectsCorruption(t *testing.T) {
	p := DefaultParams()
	h := p.headerNibbles(42)
	if _, err := parseHeader(h); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), h...)
	bad[0] ^= 0x3
	if _, err := parseHeader(bad); err == nil {
		t.Error("corrupt header accepted")
	}
	if _, err := parseHeader(h[:3]); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestTimeOnAirKnownConfigurations(t *testing.T) {
	// SF9 BW500, the OTA-adjacent configuration of §5.2: Tsym = 1.024 ms.
	p := Params{SF: 9, BW: 500e3, CR: CR45, PreambleLen: 10, SyncWord: 0x12,
		CRC: true, OSR: 1}
	toa := p.TimeOnAir(32)
	// preamble 10+4.25 = 14.25 syms + payload syms.
	wantSyms := 14.25 + float64(p.payloadSymbols(32))
	wantUs := wantSyms * 1024
	if got := float64(toa.Microseconds()); got < wantUs-2 || got > wantUs+2 {
		t.Errorf("TimeOnAir = %v µs, want %v", got, wantUs)
	}
	// Longer payloads take longer; higher SF takes longer.
	if p.TimeOnAir(64) <= p.TimeOnAir(16) {
		t.Error("time on air not monotonic in payload")
	}
}

func TestSyncShifts(t *testing.T) {
	p := DefaultParams()
	s1, s2 := p.syncShifts()
	if s1 == s2 {
		t.Error("sync shifts must differ for 0x12")
	}
	if s1%8 != 0 || s2%8 != 0 {
		t.Error("sync shifts must be multiples of 8")
	}
}
