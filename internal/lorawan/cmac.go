// Package lorawan implements the LoRa MAC layer tinySDR runs on its MCU
// (§4.1): LoRaWAN 1.0 frame encoding with AES-128 payload encryption and
// AES-CMAC message integrity, over sessions provisioned by activation by
// personalization (ABP).
package lorawan

import (
	"crypto/aes"
	"crypto/subtle"
)

// cmac computes AES-CMAC (RFC 4493) over msg with a 16-byte key.
func cmac(key [16]byte, msg []byte) [16]byte {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // 16-byte key cannot fail
	}
	k1, k2 := subkeys(key)

	n := (len(msg) + 15) / 16
	complete := n > 0 && len(msg)%16 == 0
	if n == 0 {
		n = 1
	}

	var x [16]byte
	for i := 0; i < n-1; i++ {
		xorInto(&x, msg[i*16:(i+1)*16])
		block.Encrypt(x[:], x[:])
	}

	var last [16]byte
	if complete {
		copy(last[:], msg[(n-1)*16:])
		for i := range last {
			last[i] ^= k1[i]
		}
	} else {
		rem := msg[(n-1)*16:]
		copy(last[:], rem)
		last[len(rem)] = 0x80
		for i := range last {
			last[i] ^= k2[i]
		}
	}
	xorInto(&x, last[:])
	block.Encrypt(x[:], x[:])
	return x
}

func xorInto(x *[16]byte, b []byte) {
	for i := 0; i < 16; i++ {
		x[i] ^= b[i]
	}
}

// subkeys derives the RFC 4493 K1/K2 subkeys.
func subkeys(key [16]byte) (k1, k2 [16]byte) {
	block, _ := aes.NewCipher(key[:])
	var l [16]byte
	block.Encrypt(l[:], l[:])
	k1 = shiftLeft(l)
	if l[0]&0x80 != 0 {
		k1[15] ^= 0x87
	}
	k2 = shiftLeft(k1)
	if k1[0]&0x80 != 0 {
		k2[15] ^= 0x87
	}
	return k1, k2
}

func shiftLeft(in [16]byte) (out [16]byte) {
	var carry byte
	for i := 15; i >= 0; i-- {
		out[i] = in[i]<<1 | carry
		carry = in[i] >> 7
	}
	return out
}

// micEqual compares MICs in constant time.
func micEqual(a, b [4]byte) bool {
	return subtle.ConstantTimeCompare(a[:], b[:]) == 1
}
