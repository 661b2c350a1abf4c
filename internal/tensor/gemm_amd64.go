package tensor

// AVX2 kernels (gemm_amd64.s), picked at run time. Each is reached only
// through a Go wrapper that reslices every operand to the exact length the
// assembly reads, so a shape bug panics with a Go bounds error instead of
// reading past a slice.

// useAVX2 is fixed at start-up from CPUID and XGETBV; only tests reassign
// it, to run the scalar references on an AVX2 machine.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// ymm registers across context switches.
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// The OS must save XMM (bit 1) and YMM (bit 2) state across switches.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func axpyQuad(o, b []float64, a0, a1, a2, a3, alpha float64, assign bool) {
	if useAVX2 {
		axpyQuadAVX2(o, b, a0, a1, a2, a3, alpha, assign)
		return
	}
	axpyQuadGo(o, b, a0, a1, a2, a3, alpha, assign)
}

func axpy(o, b []float64, a, alpha float64) {
	if useAVX2 {
		axpyAVX2(o, b, a, alpha)
		return
	}
	axpyGo(o, b, a, alpha)
}

func dotRow(o, x, y []float64, alpha float64, acc bool) {
	if useAVX2 {
		dotRowAVX2(o, x, y, alpha, acc)
		return
	}
	dotRowGo(o, x, y, alpha, acc)
}

// exact returns s[:n], panicking when len(s) < n (a plain s[:n] would
// reach into spare capacity).
func exact[T float64 | byte](s []T, n int) []T { return s[:len(s):len(s)][:n] }

// axpyQuadAVX2 computes exactly what axpyQuadGo computes.
func axpyQuadAVX2(o, b []float64, a0, a1, a2, a3, alpha float64, assign bool) {
	if !assign && a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
		return
	}
	quadAsm(o, exact(b, 4*len(o)), a0*alpha, a1*alpha, a2*alpha, a3*alpha, assign)
}

// axpyAVX2 computes exactly what axpyGo computes.
func axpyAVX2(o, b []float64, a, alpha float64) {
	if a == 0 {
		return
	}
	axpyAsm(o, exact(b, len(o)), a*alpha)
}

// dotRowAVX2 computes exactly what dotRowGo computes: the assembly takes
// output elements four at a time, and the last len(o)%4 go through dot.
func dotRowAVX2(o, x, y []float64, alpha float64, acc bool) {
	k, n := len(x), len(o)
	n4 := n &^ 3
	if n4 > 0 {
		dotRowAsm(o[:n4], x, exact(y, n4*k), alpha, acc)
	}
	if n4 < n {
		dotRowGo(o[n4:], x, exact(y, n*k)[n4*k:], alpha, acc)
	}
}

// Implemented in gemm_amd64.s.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// quadAsm: o[j] = c0*b[j] + c1*b[n+j] + c2*b[2n+j] + c3*b[3n+j] with
// assign, o[j] += the same sum without; n = len(o), len(b) = 4n.
//
//go:noescape
func quadAsm(o, b []float64, c0, c1, c2, c3 float64, assign bool)

// axpyAsm: o[j] += c*b[j]; len(b) = len(o).
//
//go:noescape
func axpyAsm(o, b []float64, c float64)

// dotRowAsm: o[j] (+)= alpha*dot(x, y[j*k:(j+1)*k]) with k = len(x),
// len(o)%4 == 0 and len(y) = len(o)*k.
//
//go:noescape
func dotRowAsm(o, x, y []float64, alpha float64, acc bool)
