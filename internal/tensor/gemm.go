package tensor

// Dense GEMM kernel layer.
//
// Every matrix product in matmul.go, dense or in blocks, is built from
// three inner loops, each with a pure-Go reference here and, on amd64 CPUs
// with AVX2, a Go-assembly twin (gemm_amd64.s) picked at run time:
//
//   - axpyQuad, the streaming k-quad that a×b and aᵀ×b both sweep: four b
//     rows against one output row, o[j] (+)= a0*b0[j] + a1*b1[j] +
//     a2*b2[j] + a3*b3[j];
//   - axpy, the single-row form for their k%4 tails;
//   - dotRow, one output row of a×bᵀ as 4-lane dot products.
//
// The kernels were calibrated empirically (see DESIGN.md "Kernel
// calibration"); the numbers drove the decisions that shape this file:
//
//  1. Classic register-blocked MR×NR tiles with packed A/B panels — the
//     textbook GEMM structure — lose in pure Go on gc/amd64: a 4×4 tile
//     needs 16 accumulators plus operand temporaries, which exceeds the 16
//     XMM registers and spills the inner loop (measured 3.5 GFLOP/s vs 6.6
//     for the streaming kernel).
//  2. The streaming k-quad's first quad assigns the output row instead of
//     accumulating into it, so callers may hand over uninitialized output
//     memory, deleting the memclr pass that cost ~12% of ForwardBERT.
//  3. The assembly kernels vectorize across output columns (for dotRow,
//     across four output elements, one ymm accumulator each) with separate
//     VMULPD/VADDPD in exactly the Go expressions' association order, so
//     every output element is rounded exactly as the reference rounds it.
//     No kernel fuses a multiply-add: gc on amd64 fuses only an explicit
//     math.FMA, so the reference computes the same bits at every GOAMD64
//     level, and so do the assembly kernels.
//
// Determinism. Parallel items are whole output rows with their true flop
// cost threaded to the sched gate, so chunk stealing never splits inside a
// row. Each output element is accumulated by exactly one worker in
// ascending-k order, making results bit-identical at every pool width, on
// every build level and with or without AVX2.

// KernelVariant reports which implementation of the inner loops (and of
// quant.go's element kernels) runs: "avx2" for the assembly kernels,
// "scalar" for the pure-Go reference. The two compute the same bits; they
// differ in speed only.
func KernelVariant() string {
	if useAVX2 {
		return "avx2"
	}
	return "scalar"
}

// matmulRow computes one output row of alpha·(a×b), where arow holds the
// row's k coefficients and b the k rows of length len(orow) they scale, in
// ascending-k order: k-quads, then the k%4 tail one row at a time. With
// assign the first quad stores instead of accumulating (no load of prior
// contents, so orow may be uninitialized memory); every accumulating step
// skips all-zero coefficients, which makes padded rows cheap.
func matmulRow(orow, arow, b []float64, alpha float64, assign bool) {
	n, k := len(orow), len(arow)
	p := 0
	if assign {
		if k < 4 {
			// Too short for an assign quad: clear, then accumulate.
			clear(orow)
		} else {
			axpyQuad(orow, b[:4*n], arow[0], arow[1], arow[2], arow[3], alpha, true)
			p = 4
		}
	}
	for ; p+4 <= k; p += 4 {
		axpyQuad(orow, b[p*n:(p+4)*n], arow[p], arow[p+1], arow[p+2], arow[p+3], alpha, false)
	}
	for ; p < k; p++ {
		axpy(orow, b[p*n:(p+1)*n], arow[p], alpha)
	}
}

// axpyQuadGo is the reference k-quad: b holds four consecutive rows of
// len(o), and o[j] = c0*b0[j] + c1*b1[j] + c2*b2[j] + c3*b3[j] (assign) or
// o[j] += the same sum, with ci = ai*alpha. Accumulate mode skips a quad
// whose four a values are all zero (before scaling), so zero rows never
// meet Inf or NaN in b.
func axpyQuadGo(o, b []float64, a0, a1, a2, a3, alpha float64, assign bool) {
	if !assign && a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
		return
	}
	a0 *= alpha
	a1 *= alpha
	a2 *= alpha
	a3 *= alpha
	n := len(o)
	b0, b1, b2, b3 := b[:n], b[n:2*n], b[2*n:3*n], b[3*n:4*n]
	if assign {
		for j, bv := range b0 {
			o[j] = a0*bv + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
		return
	}
	for j, bv := range b0 {
		o[j] += a0*bv + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// axpyGo is the reference single-row step: o[j] += (a*alpha)*b[j], skipped
// when a is zero.
func axpyGo(o, b []float64, a, alpha float64) {
	if a == 0 {
		return
	}
	a *= alpha
	b = b[:len(o)]
	for j, bv := range b {
		o[j] += a * bv
	}
}

// dotRowGo is the reference a×bᵀ row: x is one row of a (length k), y
// holds len(o) rows of length k, and o[j] = alpha*dot(x, y_j) (or +=
// with acc).
func dotRowGo(o, x, y []float64, alpha float64, acc bool) {
	k := len(x)
	for j := range o {
		d := alpha * dot(x, y[j*k:(j+1)*k])
		if acc {
			o[j] += d
		} else {
			o[j] = d
		}
	}
}

// dot returns the inner product of x and y (len(y) >= len(x)), accumulated
// in four independent lanes so the multiply-adds pipeline instead of
// serializing on one accumulator. The k%4 tail goes into lane 0 and the
// lanes are summed ((s0+s1)+s2)+s3; the assembly dotRow reproduces exactly
// this order.
func dot(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	p := 0
	for ; p+4 <= len(x); p += 4 {
		s0 += x[p] * y[p]
		s1 += x[p+1] * y[p+1]
		s2 += x[p+2] * y[p+2]
		s3 += x[p+3] * y[p+3]
	}
	for ; p < len(x); p++ {
		s0 += x[p] * y[p]
	}
	return s0 + s1 + s2 + s3
}
