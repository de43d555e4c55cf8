package npu

import (
	"math"

	"repro/internal/nn"
)

// The Kirin 970's NPU executes FP16. Deploying the migration model on it
// therefore rounds every weight and activation to half precision. This file
// emulates that quantization so the deployment can be validated offline:
// QuantizeFP16 produces the model the accelerator would effectively run.
// For the paper's 21-input MLP with labels in [-1, 1], FP16's ~3 decimal
// digits are far below the run-time hysteresis, so quantization never
// changes a migration decision — the property the tests' acceptance check
// (testkit.ValidateQuantized) asserts.

// RoundFP16 rounds a float64 to the nearest IEEE 754 half-precision value
// (ties to even), returned as float64. Values beyond the FP16 range clamp
// to ±65504; subnormals flush through the usual conversion.
func RoundFP16(x float64) float64 {
	return float64(fp16ToFloat(floatToFP16(float32(x))))
}

// floatToFP16 converts float32 to the raw bits of a float16.
func floatToFP16(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xff) - 127 + 15
	mant := bits & 0x7fffff

	switch {
	case exp >= 0x1f:
		// Overflow (or inf/NaN): clamp to max finite / keep inf semantics.
		if exp == 0x1f+112 && mant != 0 { // NaN in source
			return sign | 0x7e00
		}
		if int32(bits>>23&0xff) == 0xff {
			if mant != 0 {
				return sign | 0x7e00 // NaN
			}
			return sign | 0x7c00 // Inf
		}
		return sign | 0x7bff // clamp to 65504
	case exp <= 0:
		// Subnormal or underflow to zero.
		if exp < -10 {
			return sign
		}
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		rounded := (mant + half - 1 + ((mant >> shift) & 1)) >> shift
		return sign | uint16(rounded)
	default:
		// Normal: round mantissa to 10 bits, ties to even.
		half := uint32(0x1000)
		rounded := mant + half - 1 + ((mant >> 13) & 1)
		if rounded&0x800000 != 0 { // mantissa overflow bumps the exponent
			rounded = 0
			exp++
			if exp >= 0x1f {
				return sign | 0x7bff
			}
		}
		return sign | uint16(exp)<<10 | uint16(rounded>>13)
	}
}

// fp16ToFloat expands raw float16 bits to float32.
func fp16ToFloat(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case exp == 0x1f:
		return math.Float32frombits(sign | 0xff<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// QuantizeFP16 returns a copy of the model with every weight and bias
// rounded to half precision — the parameters the NPU effectively executes.
func QuantizeFP16(m *nn.MLP) *nn.MLP {
	q := m.Clone()
	q.MapParams(RoundFP16)
	return q
}
