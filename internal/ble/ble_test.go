package ble

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/iq"
)

func testBeacon() Beacon {
	return Beacon{
		AdvAddress: [6]byte{0xC0, 0x01, 0xC0, 0xDE, 0xBA, 0x5E},
		AdvData:    []byte{0x02, 0x01, 0x06, 0x07, 0xFF, 0x55, 0x44, 0x33, 0x22, 0x11},
	}
}

func TestPDUAssembly(t *testing.T) {
	b := testBeacon()
	pdu, err := b.PDU()
	if err != nil {
		t.Fatal(err)
	}
	if pdu[0]&0x0F != PDUTypeAdvNonconnInd {
		t.Errorf("PDU type = %#x", pdu[0]&0x0F)
	}
	if int(pdu[1]) != 6+len(b.AdvData) {
		t.Errorf("PDU length = %d", pdu[1])
	}
	if len(pdu) != 2+6+len(b.AdvData) {
		t.Errorf("PDU size = %d", len(pdu))
	}
}

func TestPDURejectsOversizedData(t *testing.T) {
	b := Beacon{AdvData: make([]byte, 32)}
	if _, err := b.PDU(); err == nil {
		t.Error("32-byte adv data accepted")
	}
}

func TestCRC24Properties(t *testing.T) {
	// 24-bit range and sensitivity to single-bit corruption.
	f := func(data []byte, idx int, bit uint8) bool {
		if len(data) == 0 {
			return true
		}
		crc := CRC24(data)
		if crc > 0xFFFFFF {
			return false
		}
		idx = (idx%len(data) + len(data)) % len(data)
		mut := append([]byte(nil), data...)
		mut[idx] ^= 1 << (bit % 8)
		return CRC24(mut) != crc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWhitenInvolutionPerChannel(t *testing.T) {
	for _, ch := range AdvChannels {
		data := []byte("whitening test payload")
		orig := append([]byte(nil), data...)
		Whiten(ch.Number, data)
		if bytes.Equal(data, orig) {
			t.Errorf("channel %d: whitening is identity", ch.Number)
		}
		Whiten(ch.Number, data)
		if !bytes.Equal(data, orig) {
			t.Errorf("channel %d: whitening not involutive", ch.Number)
		}
	}
}

func TestWhitenChannelsDiffer(t *testing.T) {
	// Different channels must use different whitening streams — that is
	// the point of seeding with the channel number.
	a := make([]byte, 16)
	b := make([]byte, 16)
	Whiten(37, a)
	Whiten(38, b)
	if bytes.Equal(a, b) {
		t.Error("channels 37 and 38 whiten identically")
	}
}

func TestAirBytesParseRoundTrip(t *testing.T) {
	b := testBeacon()
	for _, ch := range AdvChannels {
		air, err := b.AirBytes(ch.Number)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseAir(ch.Number, air)
		if err != nil {
			t.Fatalf("channel %d: %v", ch.Number, err)
		}
		if got.AdvAddress != b.AdvAddress || !bytes.Equal(got.AdvData, b.AdvData) {
			t.Fatalf("channel %d: round trip mismatch", ch.Number)
		}
	}
}

func TestParseAirDetectsCorruption(t *testing.T) {
	b := testBeacon()
	air, _ := b.AirBytes(37)
	for _, idx := range []int{0, 2, 6, 10, len(air) - 1} {
		mut := append([]byte(nil), air...)
		mut[idx] ^= 0x10
		if _, err := ParseAir(37, mut); err == nil {
			t.Errorf("corruption at byte %d accepted", idx)
		}
	}
}

func TestAirBitsRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		bits := AirBits(data)
		return bytes.Equal(BitsToBytes(bits), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGFSKLoopbackClean(t *testing.T) {
	for _, sps := range []int{4, 8} {
		mod, err := NewModulator(sps)
		if err != nil {
			t.Fatal(err)
		}
		demod, err := NewDemodulator(sps)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := mod.ModulateBeacon(testBeacon(), 38)
		if err != nil {
			t.Fatal(err)
		}
		got, err := demod.Receive(sig, 38)
		if err != nil {
			t.Fatalf("sps %d: %v", sps, err)
		}
		if !bytes.Equal(got.AdvData, testBeacon().AdvData) {
			t.Fatalf("sps %d: payload mismatch", sps)
		}
	}
}

func TestGFSKLoopbackWithNoiseAndOffset(t *testing.T) {
	mod, _ := NewModulator(4)
	demod, _ := NewDemodulator(4)
	sig, _ := mod.ModulateBeacon(testBeacon(), 37)
	ch := channel.NewAWGN(3, channel.NoiseFloorDBm(4e6, 9.5))
	// Strong signal (-60 dBm), arbitrary start offset.
	buf := ch.Noise(333)
	buf = append(buf, ch.ApplyInto(make(iq.Samples, len(sig)), sig, -60)...)
	buf = append(buf, ch.Noise(200)...)
	got, err := demod.Receive(buf, 37)
	if err != nil {
		t.Fatal(err)
	}
	if got.AdvAddress != testBeacon().AdvAddress {
		t.Error("address mismatch")
	}
}

func TestGFSKModulatorConstantEnvelope(t *testing.T) {
	mod, _ := NewModulator(8)
	sig := mod.Modulate([]int{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0})
	for i, x := range sig {
		m := real(x)*real(x) + imag(x)*imag(x)
		if m < 0.98 || m > 1.02 {
			t.Fatalf("sample %d power %v; GFSK must be constant envelope", i, m)
		}
	}
}

func TestGFSKBitErrorsAppearBelowSensitivity(t *testing.T) {
	// Far below sensitivity the discriminator must produce many errors.
	mod, _ := NewModulator(4)
	demod, _ := NewDemodulator(4)
	rng := rand.New(rand.NewSource(1))
	bits := make([]int, 400)
	for i := range bits {
		bits[i] = rng.Intn(2)
	}
	sig := mod.Modulate(bits)
	ch := channel.NewAWGN(4, channel.NoiseFloorDBm(4e6, 9.5))
	rx := ch.ApplyInto(make(iq.Samples, len(sig)), sig, -110)
	pad := gaussianSpan / 2 * 4
	got := demod.DemodBits(rx, pad, len(bits))
	errs := 0
	for i := range got {
		if got[i] != bits[i] {
			errs++
		}
	}
	if errs < len(bits)/10 {
		t.Errorf("errors = %d/%d at -110 dBm; noise model too optimistic", errs, len(bits))
	}
}

func TestModulatorValidation(t *testing.T) {
	if _, err := NewModulator(1); err == nil {
		t.Error("sps 1 accepted")
	}
	if _, err := NewDemodulator(100); err == nil {
		t.Error("sps 100 accepted")
	}
}

func TestAdvertiserBurstTimeline(t *testing.T) {
	a, err := NewAdvertiser(testBeacon(), 4)
	if err != nil {
		t.Fatal(err)
	}
	_, events, err := a.Burst()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	// Channels in hop order.
	for i, want := range []int{37, 38, 39} {
		if events[i].Channel.Number != want {
			t.Errorf("event %d on channel %d", i, events[i].Channel.Number)
		}
	}
	// Fig. 13: the inter-beacon gap equals the 220 µs radio retune.
	for i := 1; i < 3; i++ {
		gap := events[i].Start - events[i-1].End
		if gap != 220*time.Microsecond {
			t.Errorf("gap %d = %v, want 220 µs", i, gap)
		}
	}
}

func TestAdvertiserBurstFasterThanIPhone(t *testing.T) {
	// The paper compares tinySDR's 220 µs hop gap against 350 µs on an
	// iPhone 8; the burst with our gap must be shorter.
	a, _ := NewAdvertiser(testBeacon(), 4)
	burst := func() time.Duration {
		_, events, err := a.Burst()
		if err != nil {
			t.Fatal(err)
		}
		return events[len(events)-1].End - events[0].Start
	}
	fast := burst()
	a.HopDelay = 350 * time.Microsecond
	slow := burst()
	if fast >= slow {
		t.Error("220 µs hops not faster than 350 µs hops")
	}
}

func TestAirTimeScale(t *testing.T) {
	a, _ := NewAdvertiser(testBeacon(), 4)
	at, err := a.AirTime()
	if err != nil {
		t.Fatal(err)
	}
	// 5 + 2 + 16 + 3 = 26 bytes = 208 µs at 1 Mbps.
	if at != 208*time.Microsecond {
		t.Errorf("air time = %v, want 208 µs", at)
	}
}
