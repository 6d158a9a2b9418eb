package lorawan

import (
	"crypto/aes"
	"encoding/binary"
	"fmt"
)

// MType is the LoRaWAN message type (MHDR bits 7..5).
type MType byte

// LoRaWAN 1.0 message types.
const (
	MTypeJoinRequest MType = iota
	MTypeJoinAccept
	MTypeUnconfirmedUp
	MTypeUnconfirmedDown
	MTypeConfirmedUp
	MTypeConfirmedDown
)

// String names the message type.
func (m MType) String() string {
	names := [...]string{"join-request", "join-accept", "unconfirmed-up",
		"unconfirmed-down", "confirmed-up", "confirmed-down"}
	if int(m) < len(names) {
		return names[m]
	}
	return fmt.Sprintf("MType(%d)", byte(m))
}

// Direction of a data message, as used in crypto block construction.
type Direction byte

// Link directions.
const (
	Uplink   Direction = 0
	Downlink Direction = 1
)

// DevAddr is the 32-bit device address.
type DevAddr uint32

// Session holds the security context of an activated device.
type Session struct {
	DevAddr DevAddr
	NwkSKey [16]byte
	AppSKey [16]byte
	// FCntUp / FCntDown are the next frame counters.
	FCntUp   uint32
	FCntDown uint32
}

// NewABPSession returns a session activated by personalization (ABP, one
// of the two The Things Network activation methods of §4.1): keys and
// address are hard-coded at provisioning and the join procedure of
// over-the-air activation is skipped.
func NewABPSession(addr DevAddr, nwkSKey, appSKey [16]byte) *Session {
	return &Session{DevAddr: addr, NwkSKey: nwkSKey, AppSKey: appSKey}
}

// DataFrame is a LoRaWAN data message before encoding.
type DataFrame struct {
	MType      MType
	DevAddr    DevAddr
	FCnt       uint32
	FPort      byte
	ADR        bool
	ACK        bool
	FRMPayload []byte
}

// maxFRMPayload bounds application payloads (regional caps are tighter;
// this is the structural limit).
const maxFRMPayload = 222

// Encode produces the PHYPayload: MHDR | FHDR | FPort | encrypted payload |
// MIC. It encrypts with AppSKey (data port) and signs with NwkSKey.
func (f *DataFrame) Encode(s *Session) ([]byte, error) {
	switch f.MType {
	case MTypeUnconfirmedUp, MTypeConfirmedUp, MTypeUnconfirmedDown, MTypeConfirmedDown:
	default:
		return nil, fmt.Errorf("lorawan: %v is not a data message type", f.MType)
	}
	if len(f.FRMPayload) > maxFRMPayload {
		return nil, fmt.Errorf("lorawan: payload %d exceeds %d", len(f.FRMPayload), maxFRMPayload)
	}
	dir := f.direction()
	out := []byte{byte(f.MType) << 5}
	out = binary.LittleEndian.AppendUint32(out, uint32(f.DevAddr))
	fctrl := byte(0)
	if f.ADR {
		fctrl |= 0x80
	}
	if f.ACK {
		fctrl |= 0x20
	}
	out = append(out, fctrl)
	out = binary.LittleEndian.AppendUint16(out, uint16(f.FCnt))
	out = append(out, f.FPort)
	enc := encryptPayload(s.AppSKey, f.DevAddr, f.FCnt, dir, f.FRMPayload)
	out = append(out, enc...)
	mic := dataMIC(s.NwkSKey, f.DevAddr, f.FCnt, dir, out)
	return append(out, mic[:]...), nil
}

func (f *DataFrame) direction() Direction {
	if f.MType == MTypeUnconfirmedDown || f.MType == MTypeConfirmedDown {
		return Downlink
	}
	return Uplink
}

// DecodeData parses and verifies a data PHYPayload against a session. The
// expected direction disambiguates the frame-counter space. fcntHint
// provides the upper 16 bits of the counter (0 for fresh sessions).
func DecodeData(s *Session, phy []byte, dir Direction, fcntHint uint32) (*DataFrame, error) {
	if len(phy) < 1+7+1+4 {
		return nil, fmt.Errorf("lorawan: frame of %d bytes too short", len(phy))
	}
	mtype := MType(phy[0] >> 5)
	switch mtype {
	case MTypeUnconfirmedUp, MTypeConfirmedUp:
		if dir != Uplink {
			return nil, fmt.Errorf("lorawan: %v in downlink stream", mtype)
		}
	case MTypeUnconfirmedDown, MTypeConfirmedDown:
		if dir != Downlink {
			return nil, fmt.Errorf("lorawan: %v in uplink stream", mtype)
		}
	default:
		return nil, fmt.Errorf("lorawan: %v is not a data message", mtype)
	}
	body := phy[:len(phy)-4]
	var gotMIC [4]byte
	copy(gotMIC[:], phy[len(phy)-4:])

	devAddr := DevAddr(binary.LittleEndian.Uint32(phy[1:5]))
	if devAddr != s.DevAddr {
		return nil, fmt.Errorf("lorawan: frame for %08x, session %08x", uint32(devAddr), uint32(s.DevAddr))
	}
	fctrl := phy[5]
	if n := int(fctrl & 0x0F); n != 0 {
		return nil, fmt.Errorf("lorawan: FOpts unsupported in this profile (len %d)", n)
	}
	fcnt16 := binary.LittleEndian.Uint16(phy[6:8])
	fcnt := fcntHint&0xFFFF0000 | uint32(fcnt16)

	wantMIC := dataMIC(s.NwkSKey, devAddr, fcnt, dir, body)
	if !micEqual(gotMIC, wantMIC) {
		return nil, fmt.Errorf("lorawan: MIC mismatch")
	}
	f := &DataFrame{
		MType: mtype, DevAddr: devAddr, FCnt: fcnt,
		ADR: fctrl&0x80 != 0, ACK: fctrl&0x20 != 0,
	}
	f.FPort = phy[8]
	f.FRMPayload = encryptPayload(s.AppSKey, devAddr, fcnt, dir, phy[9:len(phy)-4])
	return f, nil
}

// encryptPayload applies the LoRaWAN CTR-style payload cipher; it is its
// own inverse.
func encryptPayload(key [16]byte, addr DevAddr, fcnt uint32, dir Direction, payload []byte) []byte {
	block, _ := aes.NewCipher(key[:])
	out := make([]byte, len(payload))
	var a [16]byte
	a[0] = 0x01
	a[5] = byte(dir)
	binary.LittleEndian.PutUint32(a[6:], uint32(addr))
	binary.LittleEndian.PutUint32(a[10:], fcnt)
	var s [16]byte
	for i := 0; i < len(payload); i += 16 {
		a[15] = byte(i/16 + 1)
		block.Encrypt(s[:], a[:])
		for j := 0; j < 16 && i+j < len(payload); j++ {
			out[i+j] = payload[i+j] ^ s[j]
		}
	}
	return out
}

// dataMIC computes the 4-byte MIC over B0 | msg.
func dataMIC(key [16]byte, addr DevAddr, fcnt uint32, dir Direction, msg []byte) [4]byte {
	b0 := make([]byte, 16, 16+len(msg))
	b0[0] = 0x49
	b0[5] = byte(dir)
	binary.LittleEndian.PutUint32(b0[6:], uint32(addr))
	binary.LittleEndian.PutUint32(b0[10:], fcnt)
	b0[15] = byte(len(msg))
	full := cmac(key, append(b0, msg...))
	var mic [4]byte
	copy(mic[:], full[:4])
	return mic
}
