//go:build !amd64

package tensor

// Without assembly kernels the Go references in gemm.go are the only path.

const useAVX2 = false

func axpyQuad(o, b []float64, a0, a1, a2, a3, alpha float64, assign bool) {
	axpyQuadGo(o, b, a0, a1, a2, a3, alpha, assign)
}

func axpyQuad2(o0, o1, b []float64, a, c [4]float64, alpha float64, assign bool) {
	axpyQuad2Go(o0, o1, b, a, c, alpha, assign)
}

func axpy(o, b []float64, a, alpha float64) { axpyGo(o, b, a, alpha) }

func dotRow(o, x, y []float64, alpha float64, acc bool) { dotRowGo(o, x, y, alpha, acc) }

func dotRow2(o0, o1, x0, x1, y []float64, alpha float64, acc bool) {
	dotRow2Go(o0, o1, x0, x1, y, alpha, acc)
}
