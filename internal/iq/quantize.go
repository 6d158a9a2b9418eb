package iq

import "math"

// ADCBits is the resolution of the AT86RF215 I/Q interface: 13 bits per
// component (one sign bit plus 12 magnitude bits), as carried in the LVDS
// I/Q word format of the radio.
const ADCBits = 13

// Quantize rounds each I and Q component to a signed mid-tread quantizer with
// the given number of bits, clipping at fullScale. It operates in place and
// returns s. With bits=13 this models the AT86RF215 converter datapath.
func Quantize(s Samples, bits int, fullScale float64) Samples {
	if bits <= 1 || fullScale <= 0 {
		return s
	}
	levels := float64(int64(1) << (bits - 1)) // e.g. 4096 for 13 bits
	step := fullScale / levels
	for i, x := range s {
		s[i] = complex(quantizeReal(real(x), step, fullScale), quantizeReal(imag(x), step, fullScale))
	}
	return s
}

func quantizeReal(v, step, fullScale float64) float64 {
	if v > fullScale-step {
		v = fullScale - step
	} else if v < -fullScale {
		v = -fullScale
	}
	return math.Round(v/step) * step
}

// QuantizeCode converts a component value to its signed integer code for the
// given bit width, clipping to the representable range. It is the integer
// form the int16 capture codec (EncodeInt16) stores.
func QuantizeCode(v float64, bits int, fullScale float64) int32 {
	levels := float64(int64(1) << (bits - 1))
	code := math.Round(v / fullScale * levels)
	maxCode := levels - 1
	if code > maxCode {
		code = maxCode
	} else if code < -levels {
		code = -levels
	}
	return int32(code)
}

// CodeToValue converts a signed integer code back to a component value.
func CodeToValue(code int32, bits int, fullScale float64) float64 {
	levels := float64(int64(1) << (bits - 1))
	return float64(code) / levels * fullScale
}
