//go:build !amd64

package tensor

// Without assembly kernels the Go references in quant.go are the only path.

func maxAbsFinite(x []float64) (float64, bool) { return maxAbsFiniteGo(x, 0) }

func quantize(dst []byte, x []float64, s float64) { quantizeGo(dst, x, s) }

func dequantize(dst []float64, q []byte, scale float64) { dequantizeGo(dst, q, scale) }

func allFinite(x []float64) bool { return allFiniteGo(x) }

func addScaled(o, b []float64, c float64) { addScaledGo(o, b, c) }

func addScaledInt8(o []float64, q []byte, scale, c float64) { addScaledInt8Go(o, q, scale, c) }
