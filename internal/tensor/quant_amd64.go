package tensor

// Run-time dispatch for the codec and accumulate kernels (quant.go). The
// assembly takes the first len%4 == 0 elements; the wrappers reslice every
// operand with exact first and run the tail through the Go reference.

func maxAbsFinite(x []float64) (float64, bool) {
	if useAVX2 {
		return maxAbsFiniteAVX2(x)
	}
	return maxAbsFiniteGo(x, 0)
}

func quantize(dst []byte, x []float64, s float64) {
	if useAVX2 {
		quantizeAVX2(dst, x, s)
		return
	}
	quantizeGo(dst, x, s)
}

func dequantize(dst []float64, q []byte, scale float64) {
	if useAVX2 {
		dequantizeAVX2(dst, q, scale)
		return
	}
	dequantizeGo(dst, q, scale)
}

func allFinite(x []float64) bool {
	if useAVX2 {
		return allFiniteAVX2(x)
	}
	return allFiniteGo(x)
}

func addScaled(o, b []float64, c float64) {
	if useAVX2 {
		addScaledAVX2(o, b, c)
		return
	}
	addScaledGo(o, b, c)
}

func addScaledInt8(o []float64, q []byte, scale, c float64) {
	if useAVX2 {
		addScaledInt8AVX2(o, q, scale, c)
		return
	}
	addScaledInt8Go(o, q, scale, c)
}

// maxAbsFiniteAVX2 computes exactly what maxAbsFiniteGo(x, 0) computes.
// Every |x[i]| is non-negative and a NaN never wins, so the maximum does
// not depend on the order the lanes visit the elements in.
func maxAbsFiniteAVX2(x []float64) (float64, bool) {
	n4 := len(x) &^ 3
	m, finite := maxAbsFiniteAsm(x[:n4])
	m, tail := maxAbsFiniteGo(x[n4:], m)
	return m, finite && tail
}

// quantizeAVX2 computes exactly what quantizeGo computes.
func quantizeAVX2(dst []byte, x []float64, s float64) {
	n4 := len(x) &^ 3
	dst = exact(dst, len(x))
	quantizeAsm(dst[:n4], x[:n4], s)
	quantizeGo(dst[n4:], x[n4:], s)
}

// dequantizeAVX2 computes exactly what dequantizeGo computes.
func dequantizeAVX2(dst []float64, q []byte, scale float64) {
	n4 := len(dst) &^ 3
	q = exact(q, len(dst))
	dequantizeAsm(dst[:n4], q[:n4], scale)
	dequantizeGo(dst[n4:], q[n4:], scale)
}

// allFiniteAVX2 computes exactly what allFiniteGo computes.
func allFiniteAVX2(x []float64) bool {
	n4 := len(x) &^ 3
	return allFiniteAsm(x[:n4]) && allFiniteGo(x[n4:])
}

// addScaledAVX2 computes exactly what addScaledGo computes: axpyAsm
// without axpyAVX2's zero skip.
func addScaledAVX2(o, b []float64, c float64) {
	axpyAsm(o, exact(b, len(o)), c)
}

// addScaledInt8AVX2 computes exactly what addScaledInt8Go computes.
func addScaledInt8AVX2(o []float64, q []byte, scale, c float64) {
	n4 := len(o) &^ 3
	q = exact(q, len(o))
	addScaledInt8Asm(o[:n4], q[:n4], scale, c)
	addScaledInt8Go(o[n4:], q[n4:], scale, c)
}

// Implemented in quant_amd64.s. Every slice length is a multiple of four,
// zero included.

// maxAbsFiniteAsm returns the largest |x[i]| (0 when none is larger), NaNs
// skipped, and whether no x[i] has an all-ones exponent.
//
//go:noescape
func maxAbsFiniteAsm(x []float64) (float64, bool)

// quantizeAsm: dst[i] = quantizeGo's byte for x[i]/s; len(dst) = len(x).
//
//go:noescape
func quantizeAsm(dst []byte, x []float64, s float64)

// dequantizeAsm: dst[i] = float64(int8(q[i])) * scale; len(q) = len(dst).
//
//go:noescape
func dequantizeAsm(dst []float64, q []byte, scale float64)

// allFiniteAsm reports whether no x[i] has an all-ones exponent.
//
//go:noescape
func allFiniteAsm(x []float64) bool

// addScaledInt8Asm: o[i] += c * (float64(int8(q[i])) * scale); len(q) =
// len(o).
//
//go:noescape
func addScaledInt8Asm(o []float64, q []byte, scale, c float64)
