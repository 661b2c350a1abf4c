package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// The assembly kernels must reproduce the Go references bit for bit. These
// tests call both implementations directly (never through the run-time
// switch) on the same operands and compare every output element's bits.

var (
	simdNs  = []int{1, 3, 4, 5, 127, 512}
	simdKs  = []int{1, 2, 3, 4, 5, 128, 130}
	quantNs = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 127, 512}
)

// simdPool returns the operand values a table case draws from: normals
// plus NaN, ±Inf, ±0 and a subnormal, so skip, sign-of-zero and NaN/Inf
// propagation are all exercised.
func simdPool(seed int64, specials bool) []float64 {
	rng := NewRNG(seed)
	pool := rng.Normal(1, 61, 0, 1).Data()
	if specials {
		pool = append(pool, math.NaN(), math.Inf(1), math.Inf(-1),
			math.Copysign(0, -1), 0, 5e-324, -1e300)
	}
	return pool
}

// simdOperands draws k-long coefficient rows a and a1, k rows b of n, and
// n rows y of k from pool, each slice starting off elements into its
// backing array. Every third k-quad of a is all zero (+0 and -0 mixed),
// the shape the accumulate-mode skip exists for. a1's zero quads sit at
// k-quads 1 and 2 of every six, so the two-row kernel meets quads where
// both rows, only a1 and only a are all zero.
func simdOperands(pool []float64, n, k, off int) (a, a1, b, y []float64) {
	next := 0
	draw := func(m int) []float64 {
		s := make([]float64, off+m)[off:]
		for i := range s {
			s[i] = pool[next%len(pool)]
			next += 7
		}
		return s
	}
	a, b, y, a1 = draw(k), draw(k*n), draw(n*k), draw(k)
	zeroQuad := func(c []float64, p int) {
		c[p], c[p+1], c[p+2], c[p+3] = 0, math.Copysign(0, -1), 0, math.Copysign(0, -1)
	}
	for p := 4; p+4 <= k; p += 12 {
		zeroQuad(a, p)
	}
	for p := 4; p+4 <= k; p += 24 {
		zeroQuad(a1, p)
		if p+8 <= k {
			zeroQuad(a1, p+4)
		}
	}
	return a, a1, b, y
}

// rowWith runs one matmulRow step sequence using the given quad and
// single-row kernels.
func rowWith(quad func(o, b []float64, a0, a1, a2, a3, alpha float64, assign bool),
	one func(o, b []float64, a, alpha float64),
	o, a, b []float64, alpha float64, assign bool) {
	n, k, p := len(o), len(a), 0
	if assign && k >= 4 {
		quad(o, b[:4*n], a[0], a[1], a[2], a[3], alpha, true)
		p = 4
	}
	for ; p+4 <= k; p += 4 {
		quad(o, b[p*n:(p+4)*n], a[p], a[p+1], a[p+2], a[p+3], alpha, false)
	}
	for ; p < k; p++ {
		one(o, b[p*n:(p+1)*n], a[p], alpha)
	}
}

// row2With runs one matmulRow2 step sequence using the given two-row quad
// and single-row kernels.
func row2With(quad2 func(o0, o1, b []float64, a, c [4]float64, alpha float64, assign bool),
	one func(o, b []float64, a, alpha float64),
	o0, o1, a0, a1, b []float64, alpha float64, assign bool) {
	n, k, p := len(o0), len(a0), 0
	if assign && k >= 4 {
		quad2(o0, o1, b[:4*n], [4]float64(a0), [4]float64(a1), alpha, true)
		p = 4
	}
	for ; p+4 <= k; p += 4 {
		quad2(o0, o1, b[p*n:(p+4)*n], [4]float64(a0[p:]), [4]float64(a1[p:]), alpha, false)
	}
	for ; p < k; p++ {
		one(o0, b[p*n:(p+1)*n], a0[p], alpha)
		one(o1, b[p*n:(p+1)*n], a1[p], alpha)
	}
}

// checkSIMD compares every assembly kernel with its Go reference on one
// operand set, in assign and accumulate modes. The two-row kernel is
// checked against two single-row Go references.
func checkSIMD(t *testing.T, pool []float64, n, k, off int, alpha float64) {
	t.Helper()
	a, a1, b, y := simdOperands(pool, n, k, off)
	init := func(start int) []float64 {
		o := make([]float64, off+n)[off:]
		for j := range o {
			o[j] = pool[(j*5+start)%len(pool)]
		}
		return o
	}
	for _, assign := range []bool{true, false} {
		if assign && k < 4 {
			continue // matmulRow clears the row instead of calling an assign quad
		}
		want, got := init(3), init(3)
		rowWith(axpyQuadGo, axpyGo, want, a, b, alpha, assign)
		rowWith(axpyQuadAVX2, axpyAVX2, got, a, b, alpha, assign)
		sameBits(t, "axpy row", n, k, off, alpha, assign, got, want)

		want1, got0, got1 := init(4), init(3), init(4)
		rowWith(axpyQuadGo, axpyGo, want1, a1, b, alpha, assign)
		row2With(axpyQuad2AVX2, axpyAVX2, got0, got1, a, a1, b, alpha, assign)
		sameBits(t, "axpy row pair, row 0", n, k, off, alpha, assign, got0, want)
		sameBits(t, "axpy row pair, row 1", n, k, off, alpha, assign, got1, want1)

		want, got = init(3), init(3)
		dotRowGo(want, a, y, alpha, !assign)
		dotRowAVX2(got, a, y, alpha, !assign)
		sameBits(t, "dotRow", n, k, off, alpha, !assign, got, want)

		want1, got0, got1 = init(4), init(3), init(4)
		dotRowGo(want1, a1, y, alpha, !assign)
		dotRow2AVX2(got0, got1, a, a1, y, alpha, !assign)
		sameBits(t, "dotRow pair, row 0", n, k, off, alpha, !assign, got0, want)
		sameBits(t, "dotRow pair, row 1", n, k, off, alpha, !assign, got1, want1)
	}
}

// sameBits fails unless every element of got has want's bits. The one
// latitude is a NaN's payload: when two different NaNs meet in an add,
// x86 keeps the first operand's, and gc commutes float operands freely,
// so the Go reference itself does not fix which payload survives. A NaN
// must still be a NaN exactly where the reference has one.
func sameBits(t *testing.T, kernel string, n, k, off int, alpha float64, mode bool, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.IsNaN(got[j]) && math.IsNaN(want[j]) {
			continue
		}
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s n=%d k=%d off=%d alpha=%v mode=%v: element %d is %v (%#x), Go reference %v (%#x)",
				kernel, n, k, off, alpha, mode, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

func requireAVX2(t testing.TB) {
	if !useAVX2 {
		t.Skip("CPU or OS lacks AVX2; the Go reference is the only path")
	}
}

func TestSIMDKernelsMatchGo(t *testing.T) {
	requireAVX2(t)
	for _, specials := range []bool{false, true} {
		pool := simdPool(21, specials)
		for _, n := range simdNs {
			for _, k := range simdKs {
				for _, off := range []int{0, 1} {
					for _, alpha := range []float64{1, 0.125, -3} {
						checkSIMD(t, pool, n, k, off, alpha)
					}
				}
			}
		}
	}
	// A NaN between a lane's largest element and smaller ones: the running
	// max must skip it, not restart after it.
	for lane := range 8 {
		x := make([]float64, 24)
		for i := range x {
			x[i] = 1
		}
		x[lane], x[lane+8], x[lane+16] = 8, math.NaN(), 2
		if got := maxAbsAVX2(x); got != 8 {
			t.Errorf("maxAbs restarted after a NaN in lane %d: %v, want 8", lane, got)
		}
	}
	for _, seed := range []int64{25, 26, 27} {
		pool := quantPool(seed)
		for _, n := range quantNs {
			for _, off := range []int{0, 1} {
				checkQuant(t, pool, n, off, -3)
			}
		}
	}
}

// quantPool returns the element values the codec kernels are checked on:
// normals, exact .5 points of the 1/64 and 1 grids, values that clamp,
// NaN, ±Inf, ±0, subnormals and random float64 bit patterns.
func quantPool(seed int64) []float64 {
	rng := NewRNG(seed)
	pool := rng.Normal(1, 40, 0, 1).Data()
	for k := -131; k <= 131; k += 6 {
		pool = append(pool, (float64(k)+0.5)/64)
	}
	pool = append(pool, 0.5, -0.5, 2.5, -2.5, 0.49999999999999994, 126.5, -127.5, 1e300, -1e300,
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, -2.5e-310)
	r := rng.Rand()
	for range 24 {
		pool = append(pool, math.Float64frombits(r.Uint64()))
	}
	return pool
}

// checkQuant compares the codec and accumulate kernels with their Go
// references on n elements drawn from pool, off elements into their
// backing arrays. extra is one more scale to quantize, dequantize and
// accumulate with.
func checkQuant(t *testing.T, pool []float64, n, off int, extra float64) {
	t.Helper()
	draw := func(start int) []float64 {
		s := make([]float64, off+n)[off:]
		for i := range s {
			s[i] = pool[(start+7*i)%len(pool)]
		}
		return s
	}
	x := draw(0)
	m := maxAbsGo(x, 0)
	if got := maxAbsAVX2(x); math.Float64bits(got) != math.Float64bits(m) {
		t.Fatalf("maxAbs n=%d off=%d: %v, Go reference %v", n, off, got, m)
	}
	// The codec's scale, one that rounds to float32 zero, a subnormal, the
	// two grids of quantPool, the float32 maximum and the non-finite ones.
	scales := []float64{float64(float32(m / 127)), float64(float32(1e-300)), 5e-324, 1.0 / 64, 1,
		math.MaxFloat32, math.Inf(1), math.NaN(), -1.0 / 64, extra}
	for _, s := range scales {
		want, got := make([]byte, off+n)[off:], make([]byte, off+n)[off:]
		quantizeGo(want, x, s)
		quantizeAVX2(got, x, s)
		if !bytes.Equal(got, want) {
			t.Fatalf("quantize n=%d off=%d s=%v: % x, Go reference % x", n, off, s, got, want)
		}
	}
	// Two code vectors: i·97+13 meets every byte value once per 256
	// elements, and the pool values' mantissa bits follow the fuzzer's data.
	seq, bits := make([]byte, off+n)[off:], make([]byte, off+n)[off:]
	for i, v := range draw(3) {
		seq[i] = byte(i*97 + 13)
		bits[i] = byte(math.Float64bits(v) >> 17)
	}
	for _, q := range [][]byte{seq, bits} {
		for _, s := range scales {
			want, got := make([]float64, off+n)[off:], make([]float64, off+n)[off:]
			dequantizeGo(want, q, s)
			dequantizeAVX2(got, q, s)
			sameBits(t, "dequantize", n, 0, off, s, false, got, want)
		}
	}
	finite := draw(5)
	for i, v := range finite {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite[i] = float64(i)
		}
	}
	for _, y := range [][]float64{x, finite} {
		if got, want := allFiniteAVX2(y), allFiniteGo(y); got != want {
			t.Fatalf("allFinite n=%d off=%d: %v, Go reference %v", n, off, got, want)
		}
	}
	for i := range finite {
		for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
			keep := finite[i]
			finite[i] = bad
			if allFiniteAVX2(finite) {
				t.Fatalf("allFinite n=%d off=%d: missed %v at %d", n, off, bad, i)
			}
			finite[i] = keep
		}
	}
	for _, c := range append([]float64{0, 1, 0.125}, scales...) {
		want, got := draw(11), draw(11)
		addScaledGo(want, x, c)
		addScaledAVX2(got, x, c)
		sameBits(t, "addScaled", n, 0, off, c, false, got, want)
	}
}

// TestSIMDWrappersRejectShortOperands pins the memory-safety boundary: an
// operand shorter than the shape needs panics with a Go bounds error in the
// wrapper, even when spare capacity would let the assembly read on.
func TestSIMDWrappersRejectShortOperands(t *testing.T) {
	requireAVX2(t)
	const n, k = 8, 5
	o := make([]float64, n)
	short := func(m int) []float64 { return make([]float64, m, m+64)[:m-1] }
	shortBytes := func(m int) []byte { return make([]byte, m, m+64)[:m-1] }
	ones := [4]float64{1, 1, 1, 1}
	x := make([]float64, k)
	for name, call := range map[string]func(){
		"axpyQuad":     func() { axpyQuadAVX2(o, short(4*n), 1, 1, 1, 1, 1, false) },
		"axpyQuad2 o1": func() { axpyQuad2AVX2(o, short(n), make([]float64, 4*n), ones, ones, 1, false) },
		"axpyQuad2 b":  func() { axpyQuad2AVX2(o, make([]float64, n), short(4*n), ones, ones, 1, true) },
		"axpy":         func() { axpyAVX2(o, short(n), 1, 1) },
		"dotRow":       func() { dotRowAVX2(o, make([]float64, k), short(n*k), 1, false) },
		"dotRow2 o1":   func() { dotRow2AVX2(o, short(n), x, x, make([]float64, n*k), 1, false) },
		"dotRow2 x1":   func() { dotRow2AVX2(o, make([]float64, n), x, short(k), make([]float64, n*k), 1, false) },
		"dotRow2 y":    func() { dotRow2AVX2(o, make([]float64, n), x, x, short(n*k), 1, false) },
		"quantize":     func() { quantizeAVX2(shortBytes(n), o, 1) },
		"dequantize":   func() { dequantizeAVX2(o, shortBytes(n), 1) },
		"addScaled":    func() { addScaledAVX2(o, short(n), 1) },
	} {
		func() {
			defer func() {
				if _, ok := recover().(runtime.Error); !ok {
					t.Errorf("%s: short operand did not panic with a runtime error", name)
				}
			}()
			call()
		}()
	}
}

// FuzzSIMDKernels drives the same comparisons with fuzzer-chosen shapes,
// alignment, alpha and operand bits (data is read as little-endian
// float64s); the codec kernels take alpha as their extra scale.
func FuzzSIMDKernels(f *testing.F) {
	bits := func(pool []float64) []byte {
		data := make([]byte, 8*len(pool))
		for i, v := range pool {
			binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(v))
		}
		return data
	}
	for _, specials := range []bool{false, true} {
		data := bits(simdPool(21, specials))
		for _, n := range simdNs {
			for _, k := range simdKs {
				for _, unaligned := range []bool{false, true} {
					f.Add(uint16(n), uint8(k), unaligned, 0.125, data)
				}
			}
		}
	}
	data := bits(quantPool(25))
	for _, n := range quantNs {
		for _, unaligned := range []bool{false, true} {
			f.Add(uint16(n), uint8(1), unaligned, 1.0/64, data)
		}
	}
	f.Fuzz(func(t *testing.T, n uint16, k uint8, unaligned bool, alpha float64, data []byte) {
		requireAVX2(t)
		if len(data) < 8 {
			return
		}
		pool := make([]float64, len(data)/8)
		for i := range pool {
			pool[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		off := 0
		if unaligned {
			off = 1
		}
		checkSIMD(t, pool, int(n%600), int(k), off, alpha)
		checkQuant(t, pool, int(n%600), off, alpha)
	})
}

// withKernelVariants runs f as one subtest per kernel variant this CPU
// offers: the scalar references (the AVX2 switch turned off) and, with
// AVX2, the assembly kernels.
func withKernelVariants(t *testing.T, f func(t *testing.T)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	for _, avx2 := range []bool{false, true} {
		if avx2 && !saved {
			continue
		}
		useAVX2 = avx2
		t.Run(KernelVariant(), f)
	}
}
