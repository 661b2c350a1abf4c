package tensor

import (
	"errors"
	"testing"

	"clinfl/internal/sched"
)

// blockProduct is one product-and-mode row of the block tests: a×b, a×bᵀ
// (transB) or aᵀ×b (transA), assigning or accumulating into dst.
type blockProduct struct {
	name           string
	transA, transB bool
	acc            bool
}

// shapes returns a's and b's shapes for blocks of m output rows, k summed
// rows or columns, and n output columns.
func (p blockProduct) shapes(m, k, n int) (ar, ac, br, bc int) {
	ar, ac, br, bc = m, k, k, n
	if p.transA {
		ar, ac = k, m
	}
	if p.transB {
		br, bc = n, k
	}
	return ar, ac, br, bc
}

func (p blockProduct) run(dst, a, b *Matrix, blocks int, alpha float64) error {
	switch {
	case p.transA:
		return MatMulTransAAcc(dst, a, b, blocks, alpha)
	case p.transB:
		return MatMulTransB(dst, a, b, blocks, alpha, p.acc)
	default:
		return MatMul(dst, a, b, blocks, alpha, p.acc)
	}
}

// TestBlockProductsEqualOneBlockProducts pins the block contract bit for
// bit: a B-block product equals its B one-block products on the blocks'
// row slices, for every product and mode, with alpha ≠ 1, at pool widths 1
// and 4 and on every kernel variant. The accumulating rows start from a
// non-zero destination, and a's rows carry zeroed leading quads, so the
// load/add path and the zero-quad skip are both pinned.
func TestBlockProductsEqualOneBlockProducts(t *testing.T) {
	products := []blockProduct{
		{name: "a×b"},
		{name: "a×b acc", acc: true},
		{name: "a×bᵀ", transB: true},
		{name: "a×bᵀ acc", transB: true, acc: true},
		{name: "aᵀ×b acc", transA: true, acc: true},
	}
	shapes := []struct{ blocks, m, k, n int }{
		{3, 5, 5, 4},      // attention-like square blocks, k%4 tail
		{4, 6, 3, 7},      // k < 4: the assign row clears, then accumulates
		{2, 7, 9, 130},    // unequal m, k, n
		{4, 32, 130, 129}, // forks at width 4
	}
	const alpha = 0.375
	withKernelVariants(t, func(t *testing.T) {
		for _, width := range []int{1, 4} {
			pool := sched.New(width)
			prev := sched.SetDefault(pool)
			for _, p := range products {
				for _, sh := range shapes {
					checkBlockProduct(t, p, sh.blocks, sh.m, sh.k, sh.n, alpha)
				}
			}
			sched.SetDefault(prev)
			pool.Close()
		}
	})
}

// checkBlockProduct runs p over blocks stacked blocks and over each block
// alone, and fails unless the stacked result has the per-block bits.
func checkBlockProduct(t *testing.T, p blockProduct, blocks, m, k, n int, alpha float64) {
	t.Helper()
	ar, ac, br, bc := p.shapes(m, k, n)
	rng := NewRNG(int64(blocks*1000 + m*100 + k*10 + n))
	a := rng.Normal(blocks*ar, ac, 0, 1)
	for i := 0; i < a.Rows(); i += 3 {
		for j := 0; j < min(8, ac); j++ {
			a.Set(i, j, 0)
		}
	}
	b := rng.Normal(blocks*br, bc, 0, 1)
	dst := New(blocks*m, n)
	if p.acc || p.transA {
		dst = rng.Normal(blocks*m, n, 0, 1)
	}
	want := make([]*Matrix, blocks)
	for g := range want {
		ag, _ := a.SliceRows(g*ar, (g+1)*ar)
		bg, _ := b.SliceRows(g*br, (g+1)*br)
		want[g], _ = dst.SliceRows(g*m, (g+1)*m)
		if err := p.run(want[g], ag, bg, 1, alpha); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.run(dst, a, b, blocks, alpha); err != nil {
		t.Fatal(err)
	}
	if stacked, _ := Concat(want...); !dst.Equal(stacked) {
		t.Fatalf("%s: %d blocks of %dx%dx%d differ from the one-block products", p.name, blocks, m, k, n)
	}
}

// naiveBlockProduct is the triple-loop reference for p over blocks stacked
// blocks: out_g = a_g×b_g, a_g×b_gᵀ or a_gᵀ×b_g, summed in textbook order.
func naiveBlockProduct(p blockProduct, a, b *Matrix, blocks int) *Matrix {
	ar, br := a.Rows()/blocks, b.Rows()/blocks
	m, k, n := ar, a.Cols(), b.Cols()
	if p.transA {
		m, k = a.Cols(), ar
	}
	if p.transB {
		n = br
	}
	out := New(blocks*m, n)
	for g := 0; g < blocks; g++ {
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for q := 0; q < k; q++ {
					ai, aq := i, q
					if p.transA {
						ai, aq = q, i
					}
					bq, bj := q, j
					if p.transB {
						bq, bj = j, q
					}
					s += a.At(g*ar+ai, aq) * b.At(g*br+bq, bj)
				}
				out.Set(g*m+i, j, s)
			}
		}
	}
	return out
}

// checkAgainstNaive runs p over blocks stacked blocks into a fresh zero
// destination and compares it with the triple-loop reference.
func checkAgainstNaive(t *testing.T, p blockProduct, a, b *Matrix, blocks int) *Matrix {
	t.Helper()
	want := naiveBlockProduct(p, a, b, blocks)
	got := New(want.Rows(), want.Cols())
	if err := p.run(got, a, b, blocks, 1); err != nil {
		t.Fatal(err)
	}
	if !got.AllClose(want, 1e-12, 1e-12) {
		t.Fatalf("%s in %d blocks differs from the triple-loop reference:\n%v\nvs\n%v", p.name, blocks, got, want)
	}
	return got
}

func TestBlockMatMulMatchesPerBlockDense(t *testing.T) {
	rng := NewRNG(7)
	const block, nb, n = 5, 3, 4
	a := rng.Normal(nb*block, block, 0, 1)
	b := rng.Normal(nb*block, n, 0, 1)
	checkAgainstNaive(t, blockProduct{name: "a×b"}, a, b, nb)
}

func TestBlockMatMulTransBMatchesPerBlockDense(t *testing.T) {
	rng := NewRNG(8)
	const block, nb, k = 4, 3, 6
	a := rng.Normal(nb*block, k, 0, 1)
	b := rng.Normal(nb*block, k, 0, 1)
	checkAgainstNaive(t, blockProduct{name: "a×bᵀ", transB: true}, a, b, nb)
}

func TestBlockMatMulTransAMatchesPerBlockDense(t *testing.T) {
	rng := NewRNG(9)
	const block, nb, m, n = 4, 3, 5, 6
	a := rng.Normal(nb*block, m, 0, 1)
	b := rng.Normal(nb*block, n, 0, 1)
	checkAgainstNaive(t, blockProduct{name: "aᵀ×b", transA: true}, a, b, nb)
}

// TestBlockOpsLargeParallelPath runs the three block products on a pool
// wide enough, and on shapes large enough, for the kernels to fork.
func TestBlockOpsLargeParallelPath(t *testing.T) {
	pool := sched.New(4)
	defer sched.SetDefault(sched.SetDefault(pool))
	defer pool.Close()
	rng := NewRNG(11)
	const block, nb, k = 32, 4, 40
	a := rng.Normal(nb*block, k, 0, 1)
	b := rng.Normal(nb*block, k, 0, 1)
	for _, sh := range []struct{ rows, flops int }{
		{nb * block, 2 * k * block},
		{nb * block, 2 * block * k},
		{nb * k, 2 * block * k},
	} {
		if !pool.WouldFork(sh.rows, sh.flops) {
			t.Fatalf("%d rows of %d flops stay inline; the test no longer reaches the forked path", sh.rows, sh.flops)
		}
	}
	scores := checkAgainstNaive(t, blockProduct{name: "a×bᵀ", transB: true}, a, b, nb)
	checkAgainstNaive(t, blockProduct{name: "a×b"}, scores, a, nb)
	checkAgainstNaive(t, blockProduct{name: "aᵀ×b", transA: true}, a, b, nb)
}

func TestBlockMatMulSingleBlockEqualsDense(t *testing.T) {
	rng := NewRNG(10)
	a := rng.Normal(6, 6, 0, 1)
	b := rng.Normal(6, 3, 0, 1)
	got, want := New(6, 3), New(6, 3)
	if err := MatMul(got, a, b, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := MatMulInto(want, a, b); err != nil {
		t.Fatal(err)
	}
	// A dense product is the one-block case of the block product.
	if !got.Equal(want) {
		t.Fatal("single-block MatMul differs from MatMulInto")
	}
}

func TestBlockOpsShapeErrors(t *testing.T) {
	a := New(6, 3)
	b := New(6, 3)
	cases := []struct {
		name string
		err  error
	}{
		{"rows not divisible", MatMul(New(6, 3), a, b, 4, 1, false)},
		{"b rows != blocks × a cols", MatMul(New(6, 3), a, b, 3, 1, false)},
		{"b rows not divisible", MatMulTransB(New(6, 1), a, New(4, 3), 3, 1, false)},
		{"col mismatch", MatMulTransB(New(6, 2), a, New(6, 2), 3, 1, false)},
		{"row mismatch", MatMulTransAAcc(New(9, 2), a, New(4, 2), 3, 1)},
		{"non-positive block count", MatMul(New(6, 3), a, b, 0, 1, false)},
		{"a×b dst", MatMul(New(6, 2), a, New(3, 3), 1, 1, false)},
		{"a×bᵀ dst", MatMulTransB(New(6, 3), a, b, 3, 1, false)},
		{"aᵀ×b dst", MatMulTransAAcc(New(3, 3), a, b, 3, 1)},
	}
	for _, c := range cases {
		if !errors.Is(c.err, ErrShape) {
			t.Errorf("%s: error %v does not wrap ErrShape", c.name, c.err)
		}
	}
}
