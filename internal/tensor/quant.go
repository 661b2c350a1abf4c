package tensor

import "math"

// Element kernels of the int8 weight codec and of FedAvg's accumulate.
//
// Like the GEMM inner loops (gemm.go), each has a pure-Go reference here
// and, on amd64 CPUs with AVX2, a Go-assembly twin (quant_amd64.s) picked
// at run time by the same CPUID gate. The twins take four elements per
// step and leave the len%4 tail to the reference; they compute the same
// bits, NaN, ±Inf, ±0 and subnormal inputs included (DESIGN.md "Codec and
// FedAvg kernels" gives the rules that make each one exact).

// MaxAbsFinite returns the largest |x[i]| (0 for an empty x) and whether
// no element is NaN or ±Inf, in one pass over x. A NaN element never
// becomes the maximum: it fails the a > max test like any other
// comparison, so a row with one NaN still gets the scale of its finite
// elements.
func MaxAbsFinite(x []float64) (float64, bool) { return maxAbsFinite(x) }

// QuantizeInt8 writes byte(int8(clamp(round(x[i]/s), ±127))) to dst[i],
// with round half away from zero (math.Round). A NaN quotient encodes as
// 0x00, which is what byte(int8(NaN)) gives on amd64. dst must hold
// len(x) bytes.
func QuantizeInt8(dst []byte, x []float64, s float64) { quantize(dst, x, s) }

// DequantizeInt8 sets dst[i] = float64(int8(q[i])) * scale. q must hold
// len(dst) bytes.
func DequantizeInt8(dst []float64, q []byte, scale float64) { dequantize(dst, q, scale) }

// AllFinite reports whether no element of x is NaN or ±Inf.
func AllFinite(x []float64) bool { return allFinite(x) }

// AddScaled sets o[i] += c*b[i] for every i: AddScaledInPlace's kernel over
// plain slices, the same bits. b must hold len(o) values.
func AddScaled(o, b []float64, c float64) { addScaled(o, b, c) }

// AddScaledInt8 sets o[i] += c*(float64(int8(q[i]))*scale) for every i:
// DequantizeInt8 into a row and then AddScaled, the same bits, in one pass
// with no row in between. q must hold len(o) bytes.
func AddScaledInt8(o []float64, q []byte, scale, c float64) { addScaledInt8(o, q, scale, c) }

// maxAbsFiniteGo is the reference MaxAbsFinite, its max starting from m
// (0 for a whole row).
func maxAbsFiniteGo(x []float64, m float64) (float64, bool) {
	finite := true
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
		finite = finite && math.Float64bits(v)&expMask != expMask
	}
	return m, finite
}

// quantizeGo is the reference QuantizeInt8.
func quantizeGo(dst []byte, x []float64, s float64) {
	for i, v := range x {
		q := math.Round(v / s)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = byte(int8(q))
	}
}

// dequantizeGo is the reference DequantizeInt8.
func dequantizeGo(dst []float64, q []byte, scale float64) {
	for i := range dst {
		dst[i] = float64(int8(q[i])) * scale
	}
}

// expMask selects a float64's exponent bits: all set means NaN or ±Inf.
const expMask = 0x7ff0000000000000

// allFiniteGo is the reference AllFinite.
func allFiniteGo(x []float64) bool {
	for _, v := range x {
		if math.Float64bits(v)&expMask == expMask {
			return false
		}
	}
	return true
}

// addScaledGo is the reference of AddScaledInPlace's loop: o[j] += c*b[j]
// for every j, with no zero skip, so 0·Inf still turns o[j] into NaN. The
// conversion rounds c*v on its own, so no GOARCH fuses it into the add.
func addScaledGo(o, b []float64, c float64) {
	b = b[:len(o)]
	for j, v := range b {
		o[j] += float64(c * v)
	}
}

// addScaledInt8Go is the reference AddScaledInt8. A code times a float32
// scale has at most 8+24 significant bits, so the inner product is exact
// and only c times it and the add round, as in addScaledGo.
func addScaledInt8Go(o []float64, q []byte, scale, c float64) {
	q = q[:len(o)]
	for j, b := range q {
		o[j] += float64(c * (float64(int8(b)) * scale))
	}
}
