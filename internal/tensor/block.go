package tensor

import "fmt"

// Block-aware matmul kernels for batched transformer execution. A matrix
// whose rows are grouped into B consecutive blocks of `block` rows (the
// flattened (B·T)×d layout of a minibatch of B sequences of length T) is
// multiplied block-by-block so attention scores never cross sequence
// boundaries. The kernels reuse the same ikj/dot loops as the dense ops and
// parallelize across output rows once the work amortizes the goroutines.
//
// Every kernel comes in three forms: an allocating wrapper (BlockMatMul*),
// an overwriting Into form, and an accumulating Acc form used by autograd
// backward rules to add vector-Jacobian products straight into gradient
// buffers. All forms fold an alpha scale into the product (attention uses
// alpha = 1/√d on the score kernel), which costs nothing here and deletes a
// whole Scale node per head from the tape.

// checkBlocked validates that m's rows split into whole blocks of size block
// and returns the block count.
func checkBlocked(op string, m *Matrix, block int) (int, error) {
	if block <= 0 {
		return 0, fmt.Errorf("%w: %s block size %d", ErrShape, op, block)
	}
	if m.rows%block != 0 {
		return 0, fmt.Errorf("%w: %s %d rows not divisible into blocks of %d",
			ErrShape, op, m.rows, block)
	}
	return m.rows / block, nil
}

// BlockMatMul multiplies B row blocks independently: a is (B·block)×block,
// b is (B·block)×n, and output block g is a_g×b_g, stacked into (B·block)×n.
// In attention this is attn×V with per-sequence attention weights.
func BlockMatMul(a, b *Matrix, block int) (*Matrix, error) {
	if err := checkBlockMatMul("BlockMatMul", a, b, block); err != nil {
		return nil, err
	}
	out := New(a.rows, b.cols)
	blockMatMul(out, a, b, block, 1)
	return out, nil
}

// BlockMatMulInto computes dst = alpha·(a×b per block) without allocating,
// overwriting dst.
func BlockMatMulInto(dst, a, b *Matrix, block int, alpha float64) error {
	if err := checkBlockMatMul("BlockMatMulInto", a, b, block); err != nil {
		return err
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("%w: BlockMatMulInto dst %dx%d, want %dx%d",
			ErrShape, dst.rows, dst.cols, a.rows, b.cols)
	}
	dst.Zero()
	blockMatMul(dst, a, b, block, alpha)
	return nil
}

// BlockMatMulAcc accumulates dst += alpha·(a×b per block) without allocating.
func BlockMatMulAcc(dst, a, b *Matrix, block int, alpha float64) error {
	if err := checkBlockMatMul("BlockMatMulAcc", a, b, block); err != nil {
		return err
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("%w: BlockMatMulAcc dst %dx%d, want %dx%d",
			ErrShape, dst.rows, dst.cols, a.rows, b.cols)
	}
	blockMatMul(dst, a, b, block, alpha)
	return nil
}

func checkBlockMatMul(op string, a, b *Matrix, block int) error {
	if _, err := checkBlocked(op, a, block); err != nil {
		return err
	}
	if a.cols != block {
		return fmt.Errorf("%w: %s needs %d cols (block), got %dx%d",
			ErrShape, op, block, a.rows, a.cols)
	}
	if b.rows != a.rows {
		return fmt.Errorf("%w: %s a %dx%d × b %dx%d",
			ErrShape, op, a.rows, a.cols, b.rows, b.cols)
	}
	return nil
}

// blockMatMul accumulates alpha·(a×b per block) into out. The real
// per-row cost (2·block·n flops) is threaded to the pool, so the small
// per-head score×V products of short sequences run inline instead of
// fanning out workers for microseconds of work.
func blockMatMul(out, a, b *Matrix, block int, alpha float64) {
	var j kernelJob
	j.kind, j.out, j.a, j.b = kBlockMatMul, out, a, b
	j.block, j.alpha = block, alpha
	runKernel(a.rows, 2*block*b.cols, &j)
}

// blockMatMulRange accumulates rows [lo, hi) of alpha·(a×b per block) into
// out: the dense row kernel with b offset to this row's block. The
// zero-quad skip matters here: attention weights at padded key positions
// are exactly zero.
func blockMatMulRange(out, a, b *Matrix, block int, alpha float64, lo, hi int) {
	n := b.cols
	for i := lo; i < hi; i++ {
		base := (i / block) * block // first b-row of this row's block
		matmulRow(out.data[i*n:(i+1)*n], a.data[i*block:(i+1)*block],
			b.data[base*n:(base+block)*n], alpha, false)
	}
}

// BlockMatMulTransB computes per-block a_g×b_gᵀ: a is (B·block)×k, b is
// (B·block)×k, output block g is block×block, stacked into (B·block)×block.
// In attention this is Q×Kᵀ restricted to each sequence's own keys.
func BlockMatMulTransB(a, b *Matrix, block int) (*Matrix, error) {
	if err := checkBlockTransB("BlockMatMulTransB", a, b, block); err != nil {
		return nil, err
	}
	out := New(a.rows, block)
	blockMatMulTransB(out, a, b, block, 1, false)
	return out, nil
}

// BlockMatMulTransBInto computes dst = alpha·(a×bᵀ per block) without
// allocating, overwriting dst. The attention score kernel: alpha carries the
// 1/√d scale so no separate scaling pass over the scores is needed.
func BlockMatMulTransBInto(dst, a, b *Matrix, block int, alpha float64) error {
	if err := checkBlockTransB("BlockMatMulTransBInto", a, b, block); err != nil {
		return err
	}
	if dst.rows != a.rows || dst.cols != block {
		return fmt.Errorf("%w: BlockMatMulTransBInto dst %dx%d, want %dx%d",
			ErrShape, dst.rows, dst.cols, a.rows, block)
	}
	blockMatMulTransB(dst, a, b, block, alpha, false)
	return nil
}

// BlockMatMulTransBAcc accumulates dst += alpha·(a×bᵀ per block).
func BlockMatMulTransBAcc(dst, a, b *Matrix, block int, alpha float64) error {
	if err := checkBlockTransB("BlockMatMulTransBAcc", a, b, block); err != nil {
		return err
	}
	if dst.rows != a.rows || dst.cols != block {
		return fmt.Errorf("%w: BlockMatMulTransBAcc dst %dx%d, want %dx%d",
			ErrShape, dst.rows, dst.cols, a.rows, block)
	}
	blockMatMulTransB(dst, a, b, block, alpha, true)
	return nil
}

func checkBlockTransB(op string, a, b *Matrix, block int) error {
	if _, err := checkBlocked(op, a, block); err != nil {
		return err
	}
	if b.rows != a.rows || b.cols != a.cols {
		return fmt.Errorf("%w: %s a %dx%d × (b %dx%d)ᵀ",
			ErrShape, op, a.rows, a.cols, b.rows, b.cols)
	}
	return nil
}

func blockMatMulTransB(out, a, b *Matrix, block int, alpha float64, acc bool) {
	var j kernelJob
	j.kind, j.out, j.a, j.b = kBlockMatMulTransB, out, a, b
	j.block, j.alpha, j.flag = block, alpha, acc
	runKernel(a.rows, 2*block*a.cols, &j)
}

// blockMatMulTransBRange computes rows [lo, hi) of alpha·(a×bᵀ per block)
// into out (accumulating when acc).
func blockMatMulTransBRange(out, a, b *Matrix, block int, alpha float64, acc bool, lo, hi int) {
	k := a.cols
	for i := lo; i < hi; i++ {
		base := (i / block) * block
		dotRow(out.data[i*block:(i+1)*block], a.data[i*k:(i+1)*k],
			b.data[base*k:(base+block)*k], alpha, acc)
	}
}

// BlockMatMulTransA computes per-block a_gᵀ×b_g: a is (B·block)×m, b is
// (B·block)×n, output block g is m×n, stacked into (B·m)×n. It is the
// remaining vector-Jacobian product needed by the two block ops above.
func BlockMatMulTransA(a, b *Matrix, block int) (*Matrix, error) {
	nb, err := checkBlockTransA("BlockMatMulTransA", a, b, block)
	if err != nil {
		return nil, err
	}
	out := New(nb*a.cols, b.cols)
	blockMatMulTransA(out, a, b, block, 1)
	return out, nil
}

// BlockMatMulTransAAcc accumulates dst += alpha·(aᵀ×b per block).
func BlockMatMulTransAAcc(dst, a, b *Matrix, block int, alpha float64) error {
	nb, err := checkBlockTransA("BlockMatMulTransAAcc", a, b, block)
	if err != nil {
		return err
	}
	if dst.rows != nb*a.cols || dst.cols != b.cols {
		return fmt.Errorf("%w: BlockMatMulTransAAcc dst %dx%d, want %dx%d",
			ErrShape, dst.rows, dst.cols, nb*a.cols, b.cols)
	}
	blockMatMulTransA(dst, a, b, block, alpha)
	return nil
}

func checkBlockTransA(op string, a, b *Matrix, block int) (int, error) {
	nb, err := checkBlocked(op, a, block)
	if err != nil {
		return 0, err
	}
	if b.rows != a.rows {
		return 0, fmt.Errorf("%w: %s (a %dx%d)ᵀ × b %dx%d",
			ErrShape, op, a.rows, a.cols, b.rows, b.cols)
	}
	return nb, nil
}

// blockMatMulTransA accumulates alpha·(aᵀ×b per block) into out,
// parallelized over whole blocks (rows within a block share accumulators),
// with the true per-block cost (2·block·m·n flops) threaded to the pool.
func blockMatMulTransA(out, a, b *Matrix, block int, alpha float64) {
	m, n := a.cols, b.cols
	var j kernelJob
	j.kind, j.out, j.a, j.b = kBlockMatMulTransA, out, a, b
	j.block, j.alpha = block, alpha
	runKernel(a.rows/block, 2*block*m*n, &j)
}

// blockMatMulTransARange accumulates blocks [lo, hi) of alpha·(aᵀ×b per
// block) into out. out row g*m+i += sum_p a[g*block+p][i] * b row
// g*block+p; stream over p.
func blockMatMulTransARange(out, a, b *Matrix, block int, alpha float64, lo, hi int) {
	m, n := a.cols, b.cols
	for g := lo; g < hi; g++ {
		for p := 0; p < block; p++ {
			arow := a.data[(g*block+p)*m : (g*block+p+1)*m]
			brow := b.data[(g*block+p)*n : (g*block+p+1)*n]
			for i, av := range arow {
				axpy(out.data[(g*m+i)*n:(g*m+i+1)*n], brow, av, alpha)
			}
		}
	}
}
