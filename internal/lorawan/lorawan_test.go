package lorawan

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func rfcKey(t *testing.T) [16]byte {
	var k [16]byte
	copy(k[:], mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	return k
}

// RFC 4493 test vectors.
func TestCMACRFC4493Vectors(t *testing.T) {
	key := rfcKey(t)
	msg := mustHex(t, "6bc1bee22e409f96e93d7e117393172a"+
		"ae2d8a571e03ac9c9eb76fac45af8e51"+
		"30c81c46a35ce411e5fbc1191a0a52ef"+
		"f69f2445df4f9b17ad2b417be66c3710")
	cases := []struct {
		n    int
		want string
	}{
		{0, "bb1d6929e95937287fa37d129b756746"},
		{16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{40, "dfa66747de9ae63030ca32611497c827"},
		{64, "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	for _, c := range cases {
		got := cmac(key, msg[:c.n])
		if !bytes.Equal(got[:], mustHex(t, c.want)) {
			t.Errorf("CMAC(%d bytes) = %x, want %s", c.n, got, c.want)
		}
	}
}

func TestCMACSubkeysRFC4493(t *testing.T) {
	k1, k2 := subkeys(rfcKey(t))
	if !bytes.Equal(k1[:], mustHex(t, "fbeed618357133667c85e08f7236a8de")) {
		t.Errorf("K1 = %x", k1)
	}
	if !bytes.Equal(k2[:], mustHex(t, "f7ddac306ae266ccf90bc11ee46d513b")) {
		t.Errorf("K2 = %x", k2)
	}
}

func testSession() *Session {
	var nwk, app [16]byte
	for i := range nwk {
		nwk[i] = byte(i)
		app[i] = byte(0xF0 - i)
	}
	return &Session{DevAddr: 0x26011D87, NwkSKey: nwk, AppSKey: app}
}

func TestDataFrameRoundTrip(t *testing.T) {
	s := testSession()
	f := &DataFrame{
		MType: MTypeUnconfirmedUp, DevAddr: s.DevAddr, FCnt: 42,
		FPort: 1, FRMPayload: []byte("temperature=21.5"),
	}
	phy, err := f.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeData(s, phy, Uplink, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.FRMPayload, f.FRMPayload) {
		t.Errorf("payload %q != %q", got.FRMPayload, f.FRMPayload)
	}
	if got.FCnt != 42 || got.FPort != 1 || got.MType != MTypeUnconfirmedUp {
		t.Errorf("fields: %+v", got)
	}
}

func TestDataFramePayloadIsEncryptedOnAir(t *testing.T) {
	s := testSession()
	payload := []byte("super secret reading")
	f := &DataFrame{MType: MTypeUnconfirmedUp, DevAddr: s.DevAddr, FCnt: 1, FPort: 1, FRMPayload: payload}
	phy, _ := f.Encode(s)
	if bytes.Contains(phy, payload) {
		t.Error("plaintext payload visible on air")
	}
}

func TestDataFrameMICRejectsTampering(t *testing.T) {
	s := testSession()
	f := &DataFrame{MType: MTypeUnconfirmedUp, DevAddr: s.DevAddr, FCnt: 7, FPort: 2, FRMPayload: []byte{1, 2, 3}}
	phy, _ := f.Encode(s)
	for _, idx := range []int{0, 1, 6, 9, len(phy) - 1} {
		mut := append([]byte(nil), phy...)
		mut[idx] ^= 0x04
		if _, err := DecodeData(s, mut, Uplink, 0); err == nil {
			t.Errorf("tampered byte %d accepted", idx)
		}
	}
}

func TestDataFrameWrongKeyRejected(t *testing.T) {
	s := testSession()
	f := &DataFrame{MType: MTypeUnconfirmedUp, DevAddr: s.DevAddr, FCnt: 7, FPort: 2, FRMPayload: []byte{1}}
	phy, _ := f.Encode(s)
	other := testSession()
	other.NwkSKey[0] ^= 1
	if _, err := DecodeData(other, phy, Uplink, 0); err == nil {
		t.Error("wrong NwkSKey accepted")
	}
}

func TestDataFrameDirectionEnforced(t *testing.T) {
	s := testSession()
	f := &DataFrame{MType: MTypeUnconfirmedUp, DevAddr: s.DevAddr, FCnt: 1, FPort: 1, FRMPayload: []byte{1}}
	phy, _ := f.Encode(s)
	if _, err := DecodeData(s, phy, Downlink, 0); err == nil {
		t.Error("uplink accepted as downlink")
	}
}

func TestDataFrameDownlink(t *testing.T) {
	s := testSession()
	f := &DataFrame{MType: MTypeUnconfirmedDown, DevAddr: s.DevAddr, FCnt: 9, FPort: 3, ACK: true, FRMPayload: []byte("cmd")}
	phy, err := f.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeData(s, phy, Downlink, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ACK || got.MType != MTypeUnconfirmedDown {
		t.Errorf("downlink fields: %+v", got)
	}
}

func TestEncryptPayloadInvolution(t *testing.T) {
	f := func(payload []byte, fcnt uint32) bool {
		if len(payload) > maxFRMPayload {
			payload = payload[:maxFRMPayload]
		}
		var key [16]byte
		key[0] = 0x42
		enc := encryptPayload(key, 0x01020304, fcnt, Uplink, payload)
		dec := encryptPayload(key, 0x01020304, fcnt, Uplink, enc)
		return bytes.Equal(dec, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEncryptPayloadDependsOnCounter(t *testing.T) {
	var key [16]byte
	a := encryptPayload(key, 1, 1, Uplink, []byte("same payload"))
	b := encryptPayload(key, 1, 2, Uplink, []byte("same payload"))
	if bytes.Equal(a, b) {
		t.Error("keystream must change with frame counter")
	}
}

func TestFrameCounterRollover16Bit(t *testing.T) {
	// Only 16 bits travel on air; the hint restores the upper bits.
	s := testSession()
	f := &DataFrame{MType: MTypeUnconfirmedUp, DevAddr: s.DevAddr, FCnt: 0x00010005, FPort: 1, FRMPayload: []byte("x")}
	phy, _ := f.Encode(s)
	if _, err := DecodeData(s, phy, Uplink, 0); err == nil {
		t.Error("frame with high counter bits decoded without hint")
	}
	got, err := DecodeData(s, phy, Uplink, 0x00010000)
	if err != nil {
		t.Fatal(err)
	}
	if got.FCnt != 0x00010005 {
		t.Errorf("FCnt = %#x", got.FCnt)
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	s := testSession()
	if _, err := (&DataFrame{MType: MTypeJoinRequest}).Encode(s); err == nil {
		t.Error("join-request via data encoder accepted")
	}
	big := &DataFrame{MType: MTypeUnconfirmedUp, DevAddr: s.DevAddr, FRMPayload: make([]byte, 500)}
	if _, err := big.Encode(s); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestABPSessionSkipsJoin(t *testing.T) {
	var nwk, app [16]byte
	nwk[0], app[0] = 1, 2
	s := NewABPSession(0x11223344, nwk, app)
	if s.DevAddr != 0x11223344 {
		t.Error("ABP address not set")
	}
	f := &DataFrame{MType: MTypeConfirmedUp, DevAddr: s.DevAddr, FCnt: 0, FPort: 1, FRMPayload: []byte("abp")}
	phy, err := f.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeData(s, phy, Uplink, 0); err != nil {
		t.Fatal(err)
	}
}

func TestMTypeStrings(t *testing.T) {
	if MTypeJoinRequest.String() != "join-request" || MTypeConfirmedUp.String() != "confirmed-up" {
		t.Error("mtype names wrong")
	}
}
