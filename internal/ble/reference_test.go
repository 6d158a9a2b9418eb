package ble

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/iq"
)

// referenceReceive is Receive's bit-timing scan in its direct form: at
// every sample offset it re-integrates all 40 preamble+AA bits through
// sliceBits and accepts the offset with at most 2 mismatches. Receive must
// return exactly what it returns.
func referenceReceive(d *Demodulator, sig iq.Samples, channel int) (Beacon, error) {
	const aaBits = 5 * 8
	aa := uint32(AccessAddress)
	aahdr := [5]byte{Preamble, byte(aa), byte(aa >> 8), byte(aa >> 16), byte(aa >> 24)}
	want := AirBits(aahdr[:])
	freq := d.discriminate(sig)
	scan := make([]int, 0, aaBits)
	limit := len(sig) - (aaBits+8)*d.SPS
	for off := 0; off <= limit; off++ {
		got := d.sliceBits(scan, freq, off, aaBits)
		if len(got) < aaBits {
			break
		}
		match := 0
		for i := range got {
			if got[i] == want[i] {
				match++
			}
		}
		if match < aaBits-2 {
			continue
		}
		hdrBits := d.sliceBits(make([]int, 0, 16), freq, off+aaBits*d.SPS, 16)
		if len(hdrBits) < 16 {
			continue
		}
		hdr := BitsToBytes(hdrBits)
		Whiten(channel, hdr)
		length := int(hdr[1])
		if length < 6 || length > 6+MaxAdvData {
			continue
		}
		totalBits := (5 + 2 + length + 3) * 8
		bits := d.sliceBits(make([]int, 0, totalBits), freq, off, totalBits)
		if len(bits) < totalBits {
			continue
		}
		b, err := ParseAir(channel, BitsToBytes(bits))
		if err != nil {
			continue
		}
		return b, nil
	}
	return Beacon{}, fmt.Errorf("ble: no beacon found on channel %d", channel)
}

// TestReceiveMatchesReferenceScan pins Receive's (Beacon, error) result to
// referenceReceive on random beacons across the sensitivity cliff (noise
// plus CFO), on noise-only, truncated and packet-tight captures, and on
// beacons whose preamble+AA carries exactly 2 or exactly 3 flipped bits.
func TestReceiveMatchesReferenceScan(t *testing.T) {
	const sps = 4
	m, err := NewModem(sps, channel.RadioProfile{Name: "cc2650", NoiseFigureDB: 4.2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewDemodulator(sps)
	if err != nil {
		t.Fatal(err)
	}
	sens := m.SensitivityDBm()
	sc := channel.NewScenario(channel.NewCFO(0, 10e3, 0, m.SampleRate()), channel.NewNoise(m.NoiseFloorDBm()))
	rng := rand.New(rand.NewSource(37))
	trial := 0

	// capture modulates bits at rssi, pads up to 200 empty samples on each
	// side, and runs the result through CFO and noise.
	capture := func(bits []int, rssi float64) iq.Samples {
		wave := m.mod.Modulate(bits).ScaleToDBm(rssi)
		sig := make(iq.Samples, rng.Intn(200), len(wave)+400)
		sig = append(sig, wave...)
		sig = append(sig, make(iq.Samples, rng.Intn(200))...)
		sc.Reset(37, trial)
		trial++
		return sc.Apply(sig)
	}
	beaconBits := func(ch int) []int {
		b := Beacon{AdvData: make([]byte, rng.Intn(MaxAdvData+1))}
		rng.Read(b.AdvAddress[:])
		rng.Read(b.AdvData)
		air, err := b.AirBytes(ch)
		if err != nil {
			t.Fatal(err)
		}
		return AirBits(air)
	}
	outcomes := map[bool]int{}
	check := func(what string, sig iq.Samples, ch int) {
		t.Helper()
		got, gerr := m.demod.Receive(sig, ch)
		want, werr := referenceReceive(ref, sig, ch)
		if !reflect.DeepEqual(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s: Receive = (%+v, %v), reference (%+v, %v)", what, got, gerr, want, werr)
		}
		outcomes[werr == nil]++
	}

	for i := 0; i < 500; i++ {
		ch := 37 + rng.Intn(3)
		rssi := sens - 4 + 8*rng.Float64()
		check(fmt.Sprintf("beacon %d at %.1f dBm on %d", i, rssi, ch), capture(beaconBits(ch), rssi), ch)
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Fatalf("cliff cases decoded %d and lost %d; the sweep must cover both", outcomes[true], outcomes[false])
	}
	for i := 0; i < 40; i++ {
		n := rng.Intn(2000)
		sc.Reset(41, i)
		check(fmt.Sprintf("noise-only %d (%d samples)", i, n), sc.Apply(make(iq.Samples, n)), 37+i%3)
	}
	for i := 0; i < 40; i++ {
		ch := 37 + i%3
		sig := capture(beaconBits(ch), sens+10)
		check(fmt.Sprintf("truncated %d", i), sig[:rng.Intn(len(sig)+1)], ch)
	}
	// Captures cut to the packet's own bits, from the first preamble bit
	// to the last CRC bit: only the first few offsets can decode.
	ramp := gaussianSpan / 2 * sps
	for i := 0; i < 20; i++ {
		ch := 37 + i%3
		bits := beaconBits(ch)
		wave := m.mod.Modulate(bits).ScaleToDBm(sens + 10)
		sc.Reset(43, i)
		check(fmt.Sprintf("tight capture %d", i), sc.Apply(wave[ramp:ramp+len(bits)*sps]), ch)
	}
	for _, flips := range []int{2, 3} {
		for i := 0; i < 20; i++ {
			ch := 37 + i%3
			bits := beaconBits(ch)
			for _, k := range rng.Perm(5 * 8)[:flips] {
				bits[k] ^= 1
			}
			check(fmt.Sprintf("%d flipped training bits, case %d", flips, i), capture(bits, sens+10), ch)
		}
	}
}
