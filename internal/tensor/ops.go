package tensor

import (
	"fmt"
	"math"
	"sync"

	"clinfl/internal/sched"
)

// MatMul returns a×b. a is m×k, b is k×n, result is m×n.
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: MatMul %dx%d × %dx%d",
			ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, b.cols)
	matmulInto(out, a, b, true)
	return out, nil
}

// MatMulInto computes dst = a×b without allocating. dst must be a.rows×b.cols
// and is overwritten (no pre-clearing pass: the kernels store in assign mode).
func MatMulInto(dst, a, b *Matrix) error {
	if err := checkMatMul("MatMulInto", dst, a, b); err != nil {
		return err
	}
	matmulInto(dst, a, b, true)
	return nil
}

// MatMulAcc accumulates dst += a×b without allocating; the in-place form the
// autograd backward rules use to add matmul vector-Jacobian products directly
// into existing gradient buffers.
func MatMulAcc(dst, a, b *Matrix) error {
	if err := checkMatMul("MatMulAcc", dst, a, b); err != nil {
		return err
	}
	matmulInto(dst, a, b, false)
	return nil
}

func checkMatMul(op string, dst, a, b *Matrix) error {
	if a.cols != b.rows {
		return fmt.Errorf("%w: %s %dx%d × %dx%d",
			ErrShape, op, a.rows, a.cols, b.rows, b.cols)
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("%w: %s dst %dx%d, want %dx%d",
			ErrShape, op, dst.rows, dst.cols, a.rows, b.cols)
	}
	return nil
}

// matmulInto computes a×b into out, assigning (assign: callers may pass
// uninitialized output memory) or accumulating into existing values (the
// Acc VJP forms). Parallel items are whole output rows with their true flop
// cost threaded to the pool gate.
func matmulInto(out, a, b *Matrix, assign bool) {
	var j kernelJob
	j.kind, j.out, j.a, j.b = kMatMul, out, a, b
	j.flag = assign
	runKernel(a.rows, 2*b.cols*a.cols, &j)
}

// matmulRange computes output rows [lo, hi) of a×b into out.
func matmulRange(out, a, b *Matrix, lo, hi int, assign bool) {
	k, n := a.cols, b.cols
	for i := lo; i < hi; i++ {
		matmulRow(out.data[i*n:(i+1)*n], a.data[i*k:(i+1)*k], b.data, 1, assign)
	}
}

// MatMulTransB returns a×bᵀ. a is m×k, b is n×k, result is m×n. This avoids
// materializing the transpose in attention and backward passes.
func MatMulTransB(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.cols {
		return nil, fmt.Errorf("%w: MatMulTransB %dx%d × (%dx%d)ᵀ",
			ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, b.rows)
	matmulTransB(out, a, b, false)
	return out, nil
}

// MatMulTransBInto computes dst = a×bᵀ without allocating. dst is
// overwritten in assign mode, so it may be uninitialized memory.
func MatMulTransBInto(dst, a, b *Matrix) error {
	if a.cols != b.cols {
		return fmt.Errorf("%w: MatMulTransBInto %dx%d × (%dx%d)ᵀ",
			ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		return fmt.Errorf("%w: MatMulTransBInto dst %dx%d, want %dx%d",
			ErrShape, dst.rows, dst.cols, a.rows, b.rows)
	}
	matmulTransB(dst, a, b, false)
	return nil
}

// MatMulTransBAcc accumulates dst += a×bᵀ without allocating.
func MatMulTransBAcc(dst, a, b *Matrix) error {
	if a.cols != b.cols {
		return fmt.Errorf("%w: MatMulTransBAcc %dx%d × (%dx%d)ᵀ",
			ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		return fmt.Errorf("%w: MatMulTransBAcc dst %dx%d, want %dx%d",
			ErrShape, dst.rows, dst.cols, a.rows, b.rows)
	}
	matmulTransB(dst, a, b, true)
	return nil
}

func matmulTransB(out, a, b *Matrix, acc bool) {
	var j kernelJob
	j.kind, j.out, j.a, j.b = kMatMulTransB, out, a, b
	j.flag = acc
	runKernel(a.rows, 2*b.rows*a.cols, &j)
}

// matmulTransBRange computes rows [lo, hi) of a×bᵀ into out (accumulating
// when acc).
func matmulTransBRange(out, a, b *Matrix, lo, hi int, acc bool) {
	k, n := a.cols, b.rows
	for i := lo; i < hi; i++ {
		dotRow(out.data[i*n:(i+1)*n], a.data[i*k:(i+1)*k], b.data, 1, acc)
	}
}

// MatMulTransA returns aᵀ×b. a is k×m, b is k×n, result is m×n.
func MatMulTransA(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows {
		return nil, fmt.Errorf("%w: MatMulTransA (%dx%d)ᵀ × %dx%d",
			ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.cols, b.cols)
	matmulTransA(out, a, b)
	return out, nil
}

// MatMulTransAAcc accumulates dst += aᵀ×b without allocating; the weight-
// gradient form (xᵀ×upstream) of the affine backward rules.
func MatMulTransAAcc(dst, a, b *Matrix) error {
	if a.rows != b.rows {
		return fmt.Errorf("%w: MatMulTransAAcc (%dx%d)ᵀ × %dx%d",
			ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		return fmt.Errorf("%w: MatMulTransAAcc dst %dx%d, want %dx%d",
			ErrShape, dst.rows, dst.cols, a.cols, b.cols)
	}
	matmulTransA(dst, a, b)
	return nil
}

// matmulTransA accumulates aᵀ×b into out (out[i][j] += sum_p a[p][i]·b[p][j]).
func matmulTransA(out, a, b *Matrix) {
	var j kernelJob
	j.kind, j.out, j.a, j.b = kMatMulTransA, out, a, b
	runKernel(a.cols, 2*a.rows*b.cols, &j)
}

// matmulTransARange accumulates output rows [lo, hi) of aᵀ×b into out.
func matmulTransARange(out, a, b *Matrix, lo, hi int) {
	k, m, n := a.rows, a.cols, b.cols
	p := 0
	for ; p+4 <= k; p += 4 {
		a0 := a.data[p*m : (p+1)*m]
		a1 := a.data[(p+1)*m : (p+2)*m]
		a2 := a.data[(p+2)*m : (p+3)*m]
		a3 := a.data[(p+3)*m : (p+4)*m]
		bq := b.data[p*n : (p+4)*n]
		for i := lo; i < hi; i++ {
			axpyQuad(out.data[i*n:(i+1)*n], bq, a0[i], a1[i], a2[i], a3[i], 1, false)
		}
	}
	for ; p < k; p++ {
		arow := a.data[p*m : (p+1)*m]
		brow := b.data[p*n : (p+1)*n]
		for i := lo; i < hi; i++ {
			axpy(out.data[i*n:(i+1)*n], brow, arow[i], 1)
		}
	}
}

// kernelKind selects a kernelJob's row-range routine.
type kernelKind uint8

const (
	kMatMul kernelKind = iota
	kMatMulTransB
	kMatMulTransA
	kBlockMatMul
	kBlockMatMulTransB
	kBlockMatMulTransA
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
	block  int
	alpha  float64
	flag   bool // kMatMul: assign; kMatMulTransB/kBlockMatMulTransB: accumulate
	blocks [][]bool
}

// Run implements sched.Body over item range [lo, hi): output rows for the
// dense kernels, row blocks for kBlockMatMulTransA.
func (j *kernelJob) Run(lo, hi int) {
	switch j.kind {
	case kMatMul:
		matmulRange(j.out, j.a, j.b, lo, hi, j.flag)
	case kMatMulTransB:
		matmulTransBRange(j.out, j.a, j.b, lo, hi, j.flag)
	case kMatMulTransA:
		matmulTransARange(j.out, j.a, j.b, lo, hi)
	case kBlockMatMul:
		blockMatMulRange(j.out, j.a, j.b, j.block, j.alpha, lo, hi)
	case kBlockMatMulTransB:
		blockMatMulTransBRange(j.out, j.a, j.b, j.block, j.alpha, j.flag, lo, hi)
	case kBlockMatMulTransA:
		blockMatMulTransARange(j.out, j.a, j.b, j.block, j.alpha, lo, hi)
	case kSoftmaxRows:
		softmaxRowsRange(j.out, j.a, j.block, j.blocks, lo, hi)
	}
}

// kernelJobs recycles job structs across forked kernel calls. A plain
// mutex-guarded free list (rather than sync.Pool) guarantees the steady
// state allocates nothing even across GC cycles.
var (
	kernelJobMu   sync.Mutex
	kernelJobFree []*kernelJob
)

// runKernel dispatches n items of flopsPerItem real work each (one
// multiply-add = 2 flops) onto the shared pool. Threading the per-item
// cost through is what lets the pool gate fan-out exactly: small block
// kernels no longer wake workers for microseconds of arithmetic, and
// tiny-but-tall shapes (a B×1 loss column) stay inline. kj is the
// caller's stack value; it runs in place when the loop would stay inline
// (no shared state touched at all) and is copied into a recycled
// heap job only when the pool will actually fork.
func runKernel(n, flopsPerItem int, kj *kernelJob) {
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

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.data[j*m.rows+i] = v
		}
	}
	return t
}

// Add returns a+b elementwise.
func Add(a, b *Matrix) (*Matrix, error) {
	if !a.SameShape(b) {
		return nil, fmt.Errorf("%w: Add %dx%d + %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out, nil
}

// AddInPlace computes m += o.
func (m *Matrix) AddInPlace(o *Matrix) error {
	if !m.SameShape(o) {
		return fmt.Errorf("%w: AddInPlace %dx%d += %dx%d", ErrShape, m.rows, m.cols, o.rows, o.cols)
	}
	for i, v := range o.data {
		m.data[i] += v
	}
	return nil
}

// AddScaledInPlace computes m += alpha*o (axpy).
func (m *Matrix) AddScaledInPlace(alpha float64, o *Matrix) error {
	if !m.SameShape(o) {
		return fmt.Errorf("%w: AddScaledInPlace %dx%d += %dx%d",
			ErrShape, m.rows, m.cols, o.rows, o.cols)
	}
	addScaled(m.data, o.data, alpha)
	return nil
}

// Sub returns a-b elementwise.
func Sub(a, b *Matrix) (*Matrix, error) {
	if !a.SameShape(b) {
		return nil, fmt.Errorf("%w: Sub %dx%d - %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out, nil
}

// Mul returns the Hadamard (elementwise) product a⊙b.
func Mul(a, b *Matrix) (*Matrix, error) {
	if !a.SameShape(b) {
		return nil, fmt.Errorf("%w: Mul %dx%d ⊙ %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] *= v
	}
	return out, nil
}

// Scale returns alpha*m.
func Scale(alpha float64, m *Matrix) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= alpha
	}
	return out
}

// ScaleInPlace computes m *= alpha.
func (m *Matrix) ScaleInPlace(alpha float64) {
	for i := range m.data {
		m.data[i] *= alpha
	}
}

// AddRowVector returns m with v (1×cols) added to every row.
func AddRowVector(m, v *Matrix) (*Matrix, error) {
	if v.rows != 1 || v.cols != m.cols {
		return nil, fmt.Errorf("%w: AddRowVector %dx%d + %dx%d",
			ErrShape, m.rows, m.cols, v.rows, v.cols)
	}
	out := m.Clone()
	for i := 0; i < m.rows; i++ {
		row := out.Row(i)
		for j, b := range v.data {
			row[j] += b
		}
	}
	return out, nil
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.data {
		s += v
	}
	return s
}

// Mean returns the mean of all elements (0 for an empty matrix).
func (m *Matrix) Mean() float64 {
	if len(m.data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.data))
}

// MaxAbs returns the largest absolute element value (0 for empty).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Norm returns the Frobenius norm.
func (m *Matrix) Norm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Apply returns a new matrix with f applied elementwise.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = f(v)
	}
	return out
}

// SoftmaxRows returns row-wise softmax of m, numerically stabilized by
// subtracting each row's max.
func SoftmaxRows(m *Matrix) *Matrix {
	out := New(m.rows, m.cols)
	SoftmaxRowsInto(out, m)
	return out
}

// SoftmaxRowsInto writes the row-wise softmax of src into dst (same shape)
// without allocating. Rows are independent, so the kernel parallelizes on
// the shared pool once the work amortizes the handoff.
func SoftmaxRowsInto(dst, src *Matrix) {
	var j kernelJob
	j.kind, j.out, j.a = kSoftmaxRows, dst, src
	runKernel(src.rows, softmaxFlopsPerCol*src.cols, &j)
}

// BlockSoftmaxRowsInto writes the row-wise softmax of src into dst,
// restricted per row block to non-padded key columns: row r of block g is
// normalized over columns j with !padMasks[g][j], and padded columns get
// exactly 0. padMasks may be nil (no padding anywhere) and individual
// entries may be nil. This is the attention-probability kernel; shape and
// mask validation is the caller's job (the autograd op does it once per
// node).
func BlockSoftmaxRowsInto(dst, src *Matrix, block int, padMasks [][]bool) {
	var j kernelJob
	j.kind, j.out, j.a = kSoftmaxRows, dst, src
	j.block = block
	j.blocks = padMasks
	runKernel(src.rows, softmaxFlopsPerCol*src.cols, &j)
}

// softmaxFlopsPerCol approximates the per-element cost of a softmax row in
// multiply-add-equivalent flops (exp dominates at ~15-20 simple ops).
const softmaxFlopsPerCol = 16

// softmaxRowsRange computes rows [lo, hi) of the (optionally block-masked)
// row softmax.
func softmaxRowsRange(dst, src *Matrix, block int, padMasks [][]bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		var mask []bool
		if padMasks != nil {
			mask = padMasks[i/block]
		}
		if mask == nil {
			softmaxRow(dst.Row(i), src.Row(i))
			continue
		}
		maskedSoftmaxRow(dst.Row(i), src.Row(i), mask)
	}
}

// maskedSoftmaxRow writes softmax(src) over columns with !mask[j] into
// dst, zeroing masked columns exactly.
func maskedSoftmaxRow(dst, src []float64, mask []bool) {
	mx := math.Inf(-1)
	for j, v := range src {
		if !mask[j] && v > mx {
			mx = v
		}
	}
	var sum float64
	for j, v := range src {
		if mask[j] {
			dst[j] = 0
			continue
		}
		e := math.Exp(v - mx)
		dst[j] = e
		sum += e
	}
	if sum == 0 {
		return
	}
	inv := 1 / sum
	for j := range dst {
		dst[j] *= inv
	}
}

// softmaxRow writes softmax(src) into dst.
func softmaxRow(dst, src []float64) {
	mx := math.Inf(-1)
	for _, v := range src {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for j, v := range src {
		e := math.Exp(v - mx)
		dst[j] = e
		sum += e
	}
	if sum == 0 {
		return
	}
	inv := 1 / sum
	for j := range dst {
		dst[j] *= inv
	}
}

// ArgmaxRows returns, for each row, the index of its maximum element.
func ArgmaxRows(m *Matrix) []int {
	out := make([]int, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		best, bi := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}

// Concat stacks matrices vertically (same column count).
func Concat(ms ...*Matrix) (*Matrix, error) {
	if len(ms) == 0 {
		return New(0, 0), nil
	}
	cols := ms[0].cols
	total := 0
	for _, m := range ms {
		if m.cols != cols {
			return nil, fmt.Errorf("%w: Concat col mismatch %d vs %d", ErrShape, m.cols, cols)
		}
		total += m.rows
	}
	out := New(total, cols)
	off := 0
	for _, m := range ms {
		copy(out.data[off:off+len(m.data)], m.data)
		off += len(m.data)
	}
	return out, nil
}

// SliceRows returns a copy of rows [lo, hi).
func (m *Matrix) SliceRows(lo, hi int) (*Matrix, error) {
	if lo < 0 || hi > m.rows || lo > hi {
		return nil, fmt.Errorf("%w: SliceRows [%d,%d) of %d rows", ErrShape, lo, hi, m.rows)
	}
	out := New(hi-lo, m.cols)
	copy(out.data, m.data[lo*m.cols:hi*m.cols])
	return out, nil
}

// SliceCols returns a copy of columns [lo, hi).
func (m *Matrix) SliceCols(lo, hi int) (*Matrix, error) {
	if lo < 0 || hi > m.cols || lo > hi {
		return nil, fmt.Errorf("%w: SliceCols [%d,%d) of %d cols", ErrShape, lo, hi, m.cols)
	}
	out := New(m.rows, hi-lo)
	for i := 0; i < m.rows; i++ {
		copy(out.Row(i), m.Row(i)[lo:hi])
	}
	return out, nil
}
