package lora

import (
	"math"
	"testing"
	"time"
)

// Golden air-time values cross-checked against the Semtech LoRa calculator
// (AN1200.13), 8-symbol preamble, explicit header, CRC on, no LDRO.
func TestTimeOnAirGoldenValues(t *testing.T) {
	cases := []struct {
		sf      int
		bw      float64
		cr      CodingRate
		payload int
		wantMS  float64
	}{
		// SF7 BW125 CR4/5 8B: 23 payload syms -> 35.25 x 1.024 ms.
		{7, 125e3, CR45, 8, 36.10},
		// SF9 BW125 CR4/5 16B: 28 payload syms -> 40.25 x 4.096 ms.
		{9, 125e3, CR45, 16, 164.86},
		// SF12 BW125 CR4/5 12B: 18 payload syms -> 30.25 x 32.768 ms.
		{12, 125e3, CR45, 12, 991.23},
		// SF8 BW500 CR4/6 60B: the OTA backbone packet.
		{8, 500e3, CR46, 60, 59.52},
		// SF10 BW250 CR4/8 24B: 48 payload syms -> 60.25 x 4.096 ms.
		{10, 250e3, CR48, 24, 246.78},
	}
	for _, c := range cases {
		p := Params{SF: c.sf, BW: c.bw, CR: c.cr, PreambleLen: 8, SyncWord: 0x12,
			CRC: true, OSR: 1}
		got := p.TimeOnAir(c.payload).Seconds() * 1e3
		if math.Abs(got-c.wantMS) > c.wantMS*0.005 {
			t.Errorf("SF%d BW%.0fk %v %dB: %.2f ms, want %.2f", c.sf, c.bw/1e3, c.cr, c.payload, got, c.wantMS)
		}
	}
}

func TestTimeOnAirLDRO(t *testing.T) {
	// Low-data-rate optimization lengthens packets (fewer bits/symbol).
	base := Params{SF: 12, BW: 125e3, CR: CR45, PreambleLen: 8, SyncWord: 0x12,
		CRC: true, OSR: 1}
	ldro := base
	ldro.LowDataRateOptimize = true
	if ldro.TimeOnAir(32) <= base.TimeOnAir(32) {
		t.Error("LDRO must lengthen the packet")
	}
}

// symbolTime is the air time one more preamble symbol adds to a packet:
// the air-time model's chirp symbol time, to within the nanosecond
// TimeOnAir truncates to.
func symbolTime(p Params) time.Duration {
	q := p
	q.PreambleLen++
	return q.TimeOnAir(1) - p.TimeOnAir(1)
}

func TestSymbolDurationAcrossConfigs(t *testing.T) {
	cases := []struct {
		sf   int
		bw   float64
		want time.Duration
	}{
		{7, 125e3, 1024 * time.Microsecond},
		{12, 125e3, 32768 * time.Microsecond},
		{9, 500e3, 1024 * time.Microsecond},
		{8, 250e3, 1024 * time.Microsecond},
	}
	for _, c := range cases {
		p := Params{SF: c.sf, BW: c.bw, CR: CR45, PreambleLen: 8, SyncWord: 0x12, OSR: 1, CRC: true}
		if got := symbolTime(p); got < c.want-1 || got > c.want+1 {
			t.Errorf("SF%d/BW%.0fk: %v, want %v", c.sf, c.bw/1e3, got, c.want)
		}
	}
}

func TestPHYRatesPaperRange(t *testing.T) {
	// §4.1: "PHY-layer rates of BW/2^SF x SF", spanning ~22.9 bps
	// (SF12/BW7.8125k) to ~27.3 kbps (SF7/BW500) over the configurations
	// Validate accepts.
	slow := Params{SF: 12, BW: 7812.5, CR: CR45, PreambleLen: 8, SyncWord: 0x12, OSR: 1}
	fast := Params{SF: 7, BW: 500e3, CR: CR45, PreambleLen: 8, SyncWord: 0x12, OSR: 1}
	for _, p := range []Params{slow, fast} {
		if err := p.Validate(); err != nil {
			t.Errorf("SF%d/BW%g: %v", p.SF, p.BW, err)
		}
	}
	rate := func(p Params) float64 { return float64(p.SF) / symbolTime(p).Seconds() }
	// symbolTime differences whole-nanosecond air times, hence the
	// tolerances.
	if r := rate(slow); math.Abs(r-22.888) > 0.01 {
		t.Errorf("slowest rate = %.3f bps, want 22.888", r)
	}
	if r := rate(fast); math.Abs(r-27343.75) > 1 {
		t.Errorf("fastest rate = %.2f bps, want 27343.75", r)
	}
}

func TestSensitivityTable(t *testing.T) {
	// Datasheet anchors at NF 7.
	cases := []struct {
		sf   int
		bw   float64
		want float64
	}{
		{7, 125e3, -123.5},
		{8, 125e3, -126},
		{10, 125e3, -131},
		{12, 125e3, -136},
		{8, 500e3, -120},
	}
	for _, c := range cases {
		if got := SensitivityDBm(c.sf, c.bw, 7); math.Abs(got-c.want) > 0.1 {
			t.Errorf("SF%d/BW%.0fk: %.1f, want %.1f", c.sf, c.bw/1e3, got, c.want)
		}
	}
}

func TestSNRLimitBounds(t *testing.T) {
	if SNRLimitDB(6) != -5 || SNRLimitDB(12) != -20 {
		t.Error("SNR limit anchors wrong")
	}
	for _, bad := range []int{5, 13} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SF%d accepted", bad)
				}
			}()
			SNRLimitDB(bad)
		}()
	}
}

func TestPacketErrorRateShape(t *testing.T) {
	p := DefaultParams()
	sens := SensitivityDBm(p.SF, p.BW, 7)
	// Monotone decreasing in RSSI.
	prev := 1.1
	for _, m := range []float64{-6, -3, 0, 3, 6} {
		per := PacketErrorRate(p, 32, sens+m, 7)
		if per > prev {
			t.Fatalf("PER not monotone at margin %v", m)
		}
		prev = per
	}
	// Anchors: ~1 far below, ~0 far above, ~10% near sensitivity.
	if per := PacketErrorRate(p, 32, sens-10, 7); per < 0.99 {
		t.Errorf("PER at -10 dB margin = %v", per)
	}
	if per := PacketErrorRate(p, 32, sens+10, 7); per > 1e-6 {
		t.Errorf("PER at +10 dB margin = %v", per)
	}
	mid := PacketErrorRate(p, 3, sens, 7)
	if mid < 0.02 || mid > 0.4 {
		t.Errorf("PER at sensitivity = %v, want ≈0.1", mid)
	}
	// Longer payloads fail more.
	if PacketErrorRate(p, 200, sens, 7) <= PacketErrorRate(p, 10, sens, 7) {
		t.Error("PER not increasing with payload length")
	}
	// FEC-capable rates do better.
	p48 := p
	p48.CR = CR48
	if PacketErrorRate(p48, 32, sens, 7) >= PacketErrorRate(p, 32, sens, 7) {
		t.Error("CR 4/8 not better than 4/5 at sensitivity")
	}
}

func TestAdaptSF(t *testing.T) {
	const bw, nf, margin = 125e3, 7.0, 3.0
	// Strong link: fastest rate.
	if got := AdaptSF(-80, bw, nf, margin); got != MinAdaptSF {
		t.Errorf("strong link SF = %d, want %d", got, MinAdaptSF)
	}
	// Dead link: slowest rate as last resort.
	if got := AdaptSF(-150, bw, nf, margin); got != 12 {
		t.Errorf("dead link SF = %d, want 12", got)
	}
	// Monotone: weaker links never get faster rates.
	prev := MinAdaptSF
	for rssi := -80.0; rssi >= -140; rssi-- {
		sf := AdaptSF(rssi, bw, nf, margin)
		if sf < prev {
			t.Fatalf("SF decreased from %d to %d at %.0f dBm", prev, sf, rssi)
		}
		prev = sf
	}
	// The chosen SF honors the margin where possible.
	for _, rssi := range []float64{-100, -115, -125, -130} {
		sf := AdaptSF(rssi, bw, nf, margin)
		if sf > MinAdaptSF {
			// The next-faster rate must violate the margin.
			if rssi-SensitivityDBm(sf-1, bw, nf) >= margin {
				t.Errorf("at %.0f dBm, SF%d chosen but SF%d had margin", rssi, sf, sf-1)
			}
		}
		if sf < 12 && rssi-SensitivityDBm(sf, bw, nf) < margin {
			t.Errorf("at %.0f dBm, SF%d lacks the margin", rssi, sf)
		}
	}
}
