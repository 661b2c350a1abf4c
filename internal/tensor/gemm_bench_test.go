package tensor

import "testing"

// Dense GEMM microbenchmarks, one per hot shape, named
// BenchmarkGEMM_{m}x{k}x{n}: the BERT attention projection
// (16×128·128×128), the BERT FFN up-projection (16×128·128×512), the LSTM
// gate projection (32×128·128×512), a batch-heavy attention shape
// (64×128·128×128), and the BERT-mini FFN (16×50·50×200). Each reports
// GFLOP/s so kernel-level changes are visible without the model stack on
// top. Run with:
//
//	go test -run '^$' -bench BenchmarkGEMM_ ./internal/tensor

func benchmarkGEMM(b *testing.B, m, k, n int) {
	rng := NewRNG(1)
	x := rng.Normal(m, k, 0, 1)
	w := rng.Normal(k, n, 0, 1)
	out := New(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MatMulInto(out, x, w); err != nil {
			b.Fatal(err)
		}
	}
	flops := float64(2 * m * k * n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkGEMM_16x128x128(b *testing.B) { benchmarkGEMM(b, 16, 128, 128) }
func BenchmarkGEMM_16x128x512(b *testing.B) { benchmarkGEMM(b, 16, 128, 512) }
func BenchmarkGEMM_32x128x512(b *testing.B) { benchmarkGEMM(b, 32, 128, 512) }
func BenchmarkGEMM_64x128x128(b *testing.B) { benchmarkGEMM(b, 64, 128, 128) }
func BenchmarkGEMM_16x50x200(b *testing.B)  { benchmarkGEMM(b, 16, 50, 200) }
