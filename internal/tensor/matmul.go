package tensor

import (
	"fmt"
	"sync"

	"clinfl/internal/sched"
)

// Matrix products over row blocks. Each product splits every operand's
// rows into `blocks` equal runs and multiplies run g of one operand with
// run g of the other, stacking the results. A dense product is the
// one-block case; the batched transformer runs one block per sequence of
// the flattened (B·T)×d minibatch layout, so attention scores never cross
// sequence boundaries. Every product folds a scale alpha into its kernels
// (attention's 1/√d score scale costs nothing there and deletes a Scale
// node per head from the tape) and keeps only the modes product code
// calls: a×b and a×bᵀ assign (forward) or accumulate (vector-Jacobian
// products added straight into gradient buffers); aᵀ×b only accumulates.

// MatMulInto computes dst = a×b: the dense, unscaled assign form. dst must
// be a.rows×b.cols and is overwritten without being read.
func MatMulInto(dst, a, b *Matrix) error { return MatMul(dst, a, b, 1, 1, false) }

// MatMul computes alpha·a_g×b_g for every block g, overwriting dst or, with
// acc, adding to it. a is (B·m)×k, b is (B·k)×n and dst (B·m)×n. The
// assign form stores without loading, so dst may be uninitialized memory.
func MatMul(dst, a, b *Matrix, blocks int, alpha float64, acc bool) error {
	if err := checkBlocks("MatMul", blocks, a); err != nil {
		return err
	}
	if b.rows != blocks*a.cols {
		return fmt.Errorf("%w: MatMul %dx%d × %dx%d in %d blocks",
			ErrShape, a.rows, a.cols, b.rows, b.cols, blocks)
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("%w: MatMul dst %dx%d, want %dx%d",
			ErrShape, dst.rows, dst.cols, a.rows, b.cols)
	}
	j := kernelJob{kind: kMatMul, out: dst, a: a, b: b, blocks: blocks, alpha: alpha, acc: acc}
	runKernel(a.rows, 2*a.cols*b.cols, &j)
	return nil
}

// MatMulTransB computes alpha·a_g×b_gᵀ for every block g, overwriting dst
// or, with acc, adding to it. a is (B·m)×k, b is (B·n)×k and dst (B·m)×n.
// Taking b transposed avoids materializing it in attention and backward.
func MatMulTransB(dst, a, b *Matrix, blocks int, alpha float64, acc bool) error {
	if err := checkBlocks("MatMulTransB", blocks, a, b); err != nil {
		return err
	}
	if a.cols != b.cols {
		return fmt.Errorf("%w: MatMulTransB %dx%d × (%dx%d)ᵀ",
			ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if dst.rows != a.rows || dst.cols != b.rows/blocks {
		return fmt.Errorf("%w: MatMulTransB dst %dx%d, want %dx%d",
			ErrShape, dst.rows, dst.cols, a.rows, b.rows/blocks)
	}
	j := kernelJob{kind: kMatMulTransB, out: dst, a: a, b: b, blocks: blocks, alpha: alpha, acc: acc}
	runKernel(a.rows, 2*a.cols*dst.cols, &j)
	return nil
}

// MatMulTransAAcc adds alpha·a_gᵀ×b_g to dst for every block g: the
// weight-gradient form (xᵀ×upstream) of the backward rules. a is (B·k)×m,
// b is (B·k)×n and dst (B·m)×n.
func MatMulTransAAcc(dst, a, b *Matrix, blocks int, alpha float64) error {
	if err := checkBlocks("MatMulTransAAcc", blocks, a); err != nil {
		return err
	}
	if b.rows != a.rows {
		return fmt.Errorf("%w: MatMulTransAAcc (%dx%d)ᵀ × %dx%d",
			ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if dst.rows != blocks*a.cols || dst.cols != b.cols {
		return fmt.Errorf("%w: MatMulTransAAcc dst %dx%d, want %dx%d",
			ErrShape, dst.rows, dst.cols, blocks*a.cols, b.cols)
	}
	j := kernelJob{kind: kMatMulTransA, out: dst, a: a, b: b, blocks: blocks, alpha: alpha}
	runKernel(dst.rows, 2*(a.rows/blocks)*b.cols, &j)
	return nil
}

// checkBlocks validates that every operand's rows split into blocks equal
// runs.
func checkBlocks(op string, blocks int, ms ...*Matrix) error {
	if blocks <= 0 {
		return fmt.Errorf("%w: %s block count %d", ErrShape, op, blocks)
	}
	for _, m := range ms {
		if m.rows%blocks != 0 {
			return fmt.Errorf("%w: %s %d rows not divisible into %d blocks",
				ErrShape, op, m.rows, blocks)
		}
	}
	return nil
}

// matmulRange computes output rows [lo, hi) of alpha·(a×b per block): the
// row kernel with b offset to the row's block, two rows at a time where
// both lie in one block. The zero-quad skip of the accumulate steps
// matters here: attention weights at padded key positions are exactly
// zero.
func matmulRange(j *kernelJob, lo, hi int) {
	out, a, b := j.out, j.a, j.b
	m, k, n := a.rows/j.blocks, a.cols, b.cols
	for i := lo; i < hi; {
		g := i / m
		bg := b.data[g*k*n : (g+1)*k*n]
		if i+1 < hi && (i+1)/m == g {
			matmulRow2(out.data[i*n:(i+1)*n], out.data[(i+1)*n:(i+2)*n],
				a.data[i*k:(i+1)*k], a.data[(i+1)*k:(i+2)*k], bg, j.alpha, !j.acc)
			i += 2
			continue
		}
		matmulRow(out.data[i*n:(i+1)*n], a.data[i*k:(i+1)*k], bg, j.alpha, !j.acc)
		i++
	}
}

// matmulTransBRange computes output rows [lo, hi) of alpha·(a×bᵀ per
// block), two rows at a time where both lie in one block.
func matmulTransBRange(j *kernelJob, lo, hi int) {
	out, a, b := j.out, j.a, j.b
	m, k, n := a.rows/j.blocks, a.cols, out.cols
	for i := lo; i < hi; {
		g := i / m
		bg := b.data[g*n*k : (g+1)*n*k]
		if i+1 < hi && (i+1)/m == g {
			dotRow2(out.data[i*n:(i+1)*n], out.data[(i+1)*n:(i+2)*n],
				a.data[i*k:(i+1)*k], a.data[(i+1)*k:(i+2)*k], bg, j.alpha, j.acc)
			i += 2
			continue
		}
		dotRow(out.data[i*n:(i+1)*n], a.data[i*k:(i+1)*k], bg, j.alpha, j.acc)
		i++
	}
}

// matmulTransARange adds output rows [lo, hi) of alpha·(aᵀ×b per block):
// row i of block g gathers Σ_p a[g·k+p][i]·b[g·k+p] over the block's k
// rows, streamed as k-quads and then the k%4 tail one row at a time. Each
// k-quad of b meets the range's rows two at a time (one row left over
// when the count is odd). Keeping the quad outer and the rows inner holds
// the quad in L1 while the output rows stream past it; rows outer and
// quads inner measured about 20% slower at the BERT weight-gradient
// shapes.
func matmulTransARange(j *kernelJob, lo, hi int) {
	out, a, b, alpha := j.out, j.a, j.b, j.alpha
	k, m, n := a.rows/j.blocks, a.cols, b.cols
	for g := lo / m; g*m < hi; g++ {
		ilo, ihi := max(lo-g*m, 0), min(hi-g*m, m)
		ad, bd, od := a.data[g*k*m:(g+1)*k*m], b.data[g*k*n:(g+1)*k*n], out.data[g*m*n:(g+1)*m*n]
		p := 0
		for ; p+4 <= k; p += 4 {
			a0 := ad[p*m : (p+1)*m]
			a1 := ad[(p+1)*m : (p+2)*m]
			a2 := ad[(p+2)*m : (p+3)*m]
			a3 := ad[(p+3)*m : (p+4)*m]
			bq := bd[p*n : (p+4)*n]
			i := ilo
			for ; i+1 < ihi; i += 2 {
				axpyQuad2(od[i*n:(i+1)*n], od[(i+1)*n:(i+2)*n], bq,
					[4]float64{a0[i], a1[i], a2[i], a3[i]}, [4]float64{a0[i+1], a1[i+1], a2[i+1], a3[i+1]}, alpha, false)
			}
			if i < ihi {
				axpyQuad(od[i*n:(i+1)*n], bq, a0[i], a1[i], a2[i], a3[i], alpha, false)
			}
		}
		for ; p < k; p++ {
			arow, brow := ad[p*m:(p+1)*m], bd[p*n:(p+1)*n]
			for i := ilo; i < ihi; i++ {
				axpy(od[i*n:(i+1)*n], brow, arow[i], alpha)
			}
		}
	}
}

// kernelKind selects a kernelJob's row-range routine.
type kernelKind uint8

const (
	kMatMul kernelKind = iota
	kMatMulTransB
	kMatMulTransA
	kSoftmaxRows
)

// kernelJob carries one kernel invocation's operands onto the shared
// fork-join pool. It implements sched.Body so pool workers can execute
// disjoint row ranges directly; job structs are recycled through a free
// list, keeping the pooled dispatch allocation-free (a closure per call
// would escape to the heap).
type kernelJob struct {
	kind   kernelKind
	out    *Matrix
	a, b   *Matrix
	blocks int
	alpha  float64
	acc    bool
	masks  [][]bool
}

// Run implements sched.Body over output row pairs [lo, hi): rows [2lo,
// 2hi), the last pair cut short when the row count is odd.
func (j *kernelJob) Run(lo, hi int) {
	lo, hi = 2*lo, min(2*hi, j.out.rows)
	switch j.kind {
	case kMatMul:
		matmulRange(j, lo, hi)
	case kMatMulTransB:
		matmulTransBRange(j, lo, hi)
	case kMatMulTransA:
		matmulTransARange(j, lo, hi)
	case kSoftmaxRows:
		softmaxRowsRange(j, lo, hi)
	}
}

// kernelJobs recycles job structs across forked kernel calls. A plain
// mutex-guarded free list (rather than sync.Pool) guarantees the steady
// state allocates nothing even across GC cycles.
var (
	kernelJobMu   sync.Mutex
	kernelJobFree []*kernelJob
)

// runKernel dispatches rows output rows of flopsPerRow real work each (one
// multiply-add = 2 flops) onto the shared pool, as ⌈rows/2⌉ row pairs.
// Threading the per-item cost through is what lets the pool gate fan-out
// exactly: small block kernels no longer wake workers for microseconds of
// arithmetic, and tiny-but-tall shapes (a B×1 loss column) stay inline.
// Pairs, not rows, because the pool's chunks are sized in flops: at the
// BERT dense shapes one row outweighs a chunk (a row of 128×512 weights
// is 131k flops), so with row items every chunk there would be one row
// and the two-row kernels would never run. kj is the
// caller's stack value; it runs in place when the loop would stay inline
// (no shared state touched at all) and is copied into a recycled heap job
// only when the pool will actually fork.
func runKernel(rows, flopsPerRow int, kj *kernelJob) {
	n, flopsPerItem := (rows+1)/2, 2*flopsPerRow
	pool := sched.Default()
	if !pool.WouldFork(n, flopsPerItem) {
		kj.Run(0, n)
		return
	}
	kernelJobMu.Lock()
	var j *kernelJob
	if k := len(kernelJobFree); k > 0 {
		j = kernelJobFree[k-1]
		kernelJobFree[k-1] = nil
		kernelJobFree = kernelJobFree[:k-1]
	} else {
		j = new(kernelJob)
	}
	kernelJobMu.Unlock()
	*j = *kj
	pool.ParallelFor(n, flopsPerItem, j)
	*j = kernelJob{}
	kernelJobMu.Lock()
	kernelJobFree = append(kernelJobFree, j)
	kernelJobMu.Unlock()
}
