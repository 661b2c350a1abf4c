package tensor

import (
	"testing"

	"clinfl/internal/sched"
)

// TestMatMulBitIdenticalAcrossPoolWidths pins the pooled kernel contract:
// parallel items are whole output rows with a fixed per-element
// accumulation order, so results must be byte-for-byte identical at every
// pool width — for every product, dense and in blocks, in assign and
// accumulate modes, on shapes below and above the fork threshold. The
// accumulating forms start from a non-zero destination so the load/add
// path is the one pinned.
func TestMatMulBitIdenticalAcrossPoolWidths(t *testing.T) {
	rng := NewRNG(11)
	shapes := []struct{ m, k, n, block int }{
		{37, 64, 50, 1},     // small: stays inline at width 1
		{67, 512, 1024, 67}, // large: forks with row-chunk stealing
		{96, 24, 20, 12},    // many short blocks: k%4 tails, block fan-out
		{128, 130, 129, 32}, // odd k and n: quad tails and dot remainders
	}
	type entry struct {
		name string
		out  func() *Matrix
		call func(dst *Matrix) error
	}
	for _, sh := range shapes {
		m, k, n, block := sh.m, sh.k, sh.n, sh.block
		nb := m / block
		a := rng.Normal(m, k, 0, 1)
		b := rng.Normal(k, n, 0, 1)
		bt := b.Transpose()
		// Block operands: att (m×block) attention-like weights whose every
		// third row starts with zeroed quads, v (m×n) values, q and kk
		// (m×k) queries and keys.
		att := rng.Normal(m, block, 0, 1)
		for i := 0; i < m; i += 3 {
			for p := 0; p < min(8, block); p++ {
				att.Set(i, p, 0)
			}
		}
		v := rng.Normal(m, n, 0, 1)
		q, kk := rng.Normal(m, k, 0, 1), rng.Normal(m, k, 0, 1)
		fresh := func(r, c int) func() *Matrix { return func() *Matrix { return New(r, c) } }
		seeded := func(r, c int) func() *Matrix {
			return func() *Matrix { return NewRNG(int64(r*c)).Normal(r, c, 0, 1) }
		}
		entries := []entry{
			{"MatMulInto", fresh(m, n), func(d *Matrix) error { return MatMulInto(d, a, b) }},
			{"MatMul acc", seeded(m, n), func(d *Matrix) error { return MatMul(d, a, b, 1, 1, true) }},
			{"MatMulTransB", fresh(m, n), func(d *Matrix) error { return MatMulTransB(d, a, bt, 1, 1, false) }},
			{"MatMulTransB acc", seeded(m, n), func(d *Matrix) error { return MatMulTransB(d, a, bt, 1, 1, true) }},
			{"MatMulTransAAcc", seeded(k, n), func(d *Matrix) error { return MatMulTransAAcc(d, a, v, 1, 1) }},
			{"block MatMul", fresh(m, n), func(d *Matrix) error { return MatMul(d, att, v, nb, 0.5, false) }},
			{"block MatMul acc", seeded(m, n), func(d *Matrix) error { return MatMul(d, att, v, nb, 0.5, true) }},
			{"block MatMulTransB", fresh(m, block), func(d *Matrix) error { return MatMulTransB(d, q, kk, nb, 0.125, false) }},
			{"block MatMulTransB acc", seeded(m, block), func(d *Matrix) error { return MatMulTransB(d, q, kk, nb, 0.125, true) }},
			{"block MatMulTransAAcc", seeded(nb*k, n), func(d *Matrix) error { return MatMulTransAAcc(d, q, v, nb, 0.5) }},
		}

		run := func(width int) []*Matrix {
			pool := sched.New(width)
			defer pool.Close()
			defer sched.SetDefault(sched.SetDefault(pool))
			outs := make([]*Matrix, len(entries))
			for i, e := range entries {
				outs[i] = e.out()
				if err := e.call(outs[i]); err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
			}
			return outs
		}

		ref := run(1)
		for _, width := range []int{2, 4} {
			got := run(width)
			for i, e := range entries {
				if !got[i].Equal(ref[i]) {
					t.Fatalf("shape %+v width %d: %s not bit-identical to width 1",
						sh, width, e.name)
				}
			}
		}
	}
}

// naiveMatMul is the textbook triple loop, the semantic reference for every
// dense kernel variant. Its summation order differs from the k-quad
// kernels', so comparisons are tolerance-based, not bit-based.
func naiveMatMul(a, b *Matrix) *Matrix {
	m, k, n := a.Rows(), b.Rows(), b.Cols()
	out := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.Data()[i*k+p]
			for j := 0; j < n; j++ {
				out.Data()[i*n+j] += av * b.Data()[p*n+j]
			}
		}
	}
	return out
}

// TestMatMulMatchesNaiveReference checks the streaming kernels (assign
// first-quad, zero-skip accumulation quads, scalar tail) against the
// naive triple loop across k values that exercise every code path: k<4
// (clear+row fallback), exact quads, and quad+tail shapes.
func TestMatMulMatchesNaiveReference(t *testing.T) {
	rng := NewRNG(12)
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31} {
		a := rng.Normal(6, k, 0, 1)
		b := rng.Normal(k, 11, 0, 1)
		got, err := product(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveMatMul(a, b); !got.AllClose(want, 1e-12, 1e-12) {
			t.Fatalf("k=%d: kernel differs from naive reference", k)
		}
	}
	// Zero-heavy A rows exercise the zero-skip quads without changing the
	// result (skipped terms contribute exactly zero in both orders).
	a := rng.Normal(5, 16, 0, 1)
	for i := 0; i < 5; i++ {
		for p := 4; p < 12; p++ {
			a.Set(i, p, 0)
		}
	}
	b := rng.Normal(16, 9, 0, 1)
	got, err := product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveMatMul(a, b); !got.AllClose(want, 1e-12, 1e-12) {
		t.Fatal("zero-skip path differs from naive reference")
	}
}
