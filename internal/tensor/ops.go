package tensor

import (
	"fmt"
	"math"
)

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

// SoftmaxRowsInto writes the row-wise softmax of src into dst (same
// shape), numerically stabilized by subtracting each row's max. padMasks,
// when non-nil, holds one key mask per block of rows/len(padMasks) rows:
// row r of block g is normalized over the columns j with !padMasks[g][j],
// and masked columns get exactly 0. A nil entry masks nothing in its
// block. This is the attention-probability kernel and cross-entropy's
// softmax; shape and mask validation is the caller's job (the autograd op
// does it once per node). Rows are independent, so the kernel runs on the
// shared pool once the work amortizes the handoff.
func SoftmaxRowsInto(dst, src *Matrix, padMasks [][]bool) {
	j := kernelJob{kind: kSoftmaxRows, out: dst, a: src, masks: padMasks}
	runKernel(src.rows, softmaxFlopsPerCol*src.cols, &j)
}

// softmaxFlopsPerCol approximates the per-element cost of a softmax row in
// multiply-add-equivalent flops (exp dominates at ~15-20 simple ops).
const softmaxFlopsPerCol = 16

// softmaxRowsRange computes rows [lo, hi) of the (optionally masked) row
// softmax.
func softmaxRowsRange(j *kernelJob, lo, hi int) {
	dst, src := j.out, j.a
	for i := lo; i < hi; i++ {
		var mask []bool
		if j.masks != nil {
			mask = j.masks[i/(src.rows/len(j.masks))]
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
