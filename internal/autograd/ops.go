package autograd

import (
	"fmt"
	"math"

	"clinfl/internal/tensor"
)

// Forward constructors. Each records one node carrying the opcode and the
// auxiliary state its backward rule (backward.go) needs; values are computed
// into tape-allocated (arena-recycled) matrices with no intermediate
// allocation.

// Add returns a+b.
func (t *Tape) Add(a, b *Node) (*Node, error) {
	if !a.Value.SameShape(b.Value) {
		return nil, fmt.Errorf("autograd: %w: Add %dx%d + %dx%d", tensor.ErrShape,
			a.Value.Rows(), a.Value.Cols(), b.Value.Rows(), b.Value.Cols())
	}
	v := t.newMatrixUninit(a.Value.Rows(), a.Value.Cols())
	vd, ad, bd := v.Data(), a.Value.Data(), b.Value.Data()
	for i, av := range ad {
		vd[i] = av + bd[i]
	}
	return t.newOp(opAdd, v, a, b, nil), nil
}

// Sub returns a-b.
func (t *Tape) Sub(a, b *Node) (*Node, error) {
	if !a.Value.SameShape(b.Value) {
		return nil, fmt.Errorf("autograd: %w: Sub %dx%d - %dx%d", tensor.ErrShape,
			a.Value.Rows(), a.Value.Cols(), b.Value.Rows(), b.Value.Cols())
	}
	v := t.newMatrixUninit(a.Value.Rows(), a.Value.Cols())
	vd, ad, bd := v.Data(), a.Value.Data(), b.Value.Data()
	for i, av := range ad {
		vd[i] = av - bd[i]
	}
	return t.newOp(opSub, v, a, b, nil), nil
}

// Mul returns the elementwise (Hadamard) product a⊙b.
func (t *Tape) Mul(a, b *Node) (*Node, error) {
	if !a.Value.SameShape(b.Value) {
		return nil, fmt.Errorf("autograd: %w: Mul %dx%d ⊙ %dx%d", tensor.ErrShape,
			a.Value.Rows(), a.Value.Cols(), b.Value.Rows(), b.Value.Cols())
	}
	v := t.newMatrixUninit(a.Value.Rows(), a.Value.Cols())
	vd, ad, bd := v.Data(), a.Value.Data(), b.Value.Data()
	for i, av := range ad {
		vd[i] = av * bd[i]
	}
	return t.newOp(opMul, v, a, b, nil), nil
}

// Scale returns alpha*a for a compile-time constant alpha.
func (t *Tape) Scale(alpha float64, a *Node) *Node {
	v := t.newMatrixUninit(a.Value.Rows(), a.Value.Cols())
	vd, ad := v.Data(), a.Value.Data()
	for i, av := range ad {
		vd[i] = alpha * av
	}
	n := t.newOp(opScale, v, a, nil, nil)
	n.alpha = alpha
	return n
}

// MatMul returns a_g×b_g for every block g of blocks equal row runs
// (a is (B·m)×k, b is (B·k)×n; a dense product is one block). The
// batched transformer's attn×V runs one block per sequence.
func (t *Tape) MatMul(a, b *Node, blocks int) (*Node, error) {
	// Assign-mode kernel writes every element, so the output can skip the
	// arena's zeroing pass.
	v := t.newMatrixUninit(a.Value.Rows(), b.Value.Cols())
	if err := tensor.MatMul(v, a.Value, b.Value, blocks, 1, false); err != nil {
		return nil, fmt.Errorf("autograd: %w", err)
	}
	n := t.newOp(opMatMul, v, a, b, nil)
	n.iaux = blocks
	return n, nil
}

// MatMulTransB returns alpha·a_g×b_gᵀ for every block g (a is (B·m)×k, b
// is (B·n)×k) as a single node. Attention's per-sequence scores Q×Kᵀ fold
// their 1/√d scale in here, deleting a separate Scale node (and its
// full-score-matrix value and gradient) per head per layer.
func (t *Tape) MatMulTransB(a, b *Node, blocks int, alpha float64) (*Node, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("autograd: %w: MatMulTransB block count %d", tensor.ErrShape, blocks)
	}
	v := t.newMatrixUninit(a.Value.Rows(), b.Value.Rows()/blocks)
	if err := tensor.MatMulTransB(v, a.Value, b.Value, blocks, alpha, false); err != nil {
		return nil, fmt.Errorf("autograd: %w", err)
	}
	n := t.newOp(opMatMulTransB, v, a, b, nil)
	n.iaux = blocks
	n.alpha = alpha
	return n, nil
}

// Affine returns x×w + b with b a 1×out bias row, fused into a single node.
// This is the Linear layer's forward; fusing removes one intermediate
// matrix and one tape node per projection relative to MatMul+AddRowVector.
func (t *Tape) Affine(x, w, b *Node) (*Node, error) {
	v, err := t.affineValue("Affine", x, w, b)
	if err != nil {
		return nil, err
	}
	return t.newOp(opAffine, v, x, w, b), nil
}

// LinearGELU returns GELU(x×w + b) as one fused node: the transformer
// feed-forward (and MLM-head) hot chain. The pre-activation is saved for
// the backward rule; the activation itself is computed in place.
func (t *Tape) LinearGELU(x, w, b *Node) (*Node, error) {
	h, err := t.affineValue("LinearGELU", x, w, b)
	if err != nil {
		return nil, err
	}
	v := t.newMatrixUninit(h.Rows(), h.Cols())
	vd, hd := v.Data(), h.Data()
	for i, x := range hd {
		vd[i] = geluValue(x)
	}
	n := t.newOp(opLinearGELU, v, x, w, b)
	n.m1 = h
	return n, nil
}

// affineValue computes x×w + b into a fresh tape matrix.
func (t *Tape) affineValue(op string, x, w, b *Node) (*tensor.Matrix, error) {
	if x.Value.Cols() != w.Value.Rows() {
		return nil, fmt.Errorf("autograd: %w: %s %dx%d × %dx%d", tensor.ErrShape, op,
			x.Value.Rows(), x.Value.Cols(), w.Value.Rows(), w.Value.Cols())
	}
	if b.Value.Rows() != 1 || b.Value.Cols() != w.Value.Cols() {
		return nil, fmt.Errorf("autograd: %w: %s bias must be 1x%d, got %dx%d", tensor.ErrShape,
			op, w.Value.Cols(), b.Value.Rows(), b.Value.Cols())
	}
	v := t.newMatrixUninit(x.Value.Rows(), w.Value.Cols())
	if err := tensor.MatMulInto(v, x.Value, w.Value); err != nil {
		return nil, fmt.Errorf("autograd: %w", err)
	}
	bd := b.Value.Data()
	for i := 0; i < v.Rows(); i++ {
		row := v.Row(i)
		for j, bv := range bd {
			row[j] += bv
		}
	}
	return v, nil
}

// AddRowVector returns x with the 1×C bias b added to every row.
func (t *Tape) AddRowVector(x, b *Node) (*Node, error) {
	if b.Value.Rows() != 1 || b.Value.Cols() != x.Value.Cols() {
		return nil, fmt.Errorf("autograd: %w: AddRowVector %dx%d + %dx%d", tensor.ErrShape,
			x.Value.Rows(), x.Value.Cols(), b.Value.Rows(), b.Value.Cols())
	}
	v := t.newMatrixUninit(x.Value.Rows(), x.Value.Cols())
	bd := b.Value.Data()
	for i := 0; i < v.Rows(); i++ {
		src, dst := x.Value.Row(i), v.Row(i)
		for j, bv := range bd {
			dst[j] = src[j] + bv
		}
	}
	return t.newOp(opAddRowVector, v, x, b, nil), nil
}

// apply computes f elementwise into a fresh tape matrix.
func (t *Tape) apply(a *Node, f func(float64) float64) *tensor.Matrix {
	v := t.newMatrixUninit(a.Value.Rows(), a.Value.Cols())
	vd, ad := v.Data(), a.Value.Data()
	for i, x := range ad {
		vd[i] = f(x)
	}
	return v
}

// Tanh applies tanh elementwise.
func (t *Tape) Tanh(a *Node) *Node {
	return t.newOp(opTanh, t.apply(a, math.Tanh), a, nil, nil)
}

// Sigmoid applies the logistic function elementwise.
func (t *Tape) Sigmoid(a *Node) *Node {
	v := t.apply(a, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) })
	return t.newOp(opSigmoid, v, a, nil, nil)
}

// geluCoeff is sqrt(2/pi) used by the tanh approximation of GELU.
var geluCoeff = math.Sqrt(2 / math.Pi)

// geluValue is the tanh approximation of GELU(x). The fused and unfused
// ops must share it (with geluDeriv) so they stay bit-identical.
func geluValue(x float64) float64 {
	return 0.5 * x * (1 + math.Tanh(geluCoeff*(x+0.044715*x*x*x)))
}

// geluDeriv is d/dx of geluValue.
func geluDeriv(x float64) float64 {
	u := geluCoeff * (x + 0.044715*x*x*x)
	th := math.Tanh(u)
	du := geluCoeff * (1 + 3*0.044715*x*x)
	return 0.5*(1+th) + 0.5*x*(1-th*th)*du
}

// GELU applies the Gaussian error linear unit (tanh approximation), the
// activation BERT uses in its feed-forward blocks.
func (t *Tape) GELU(a *Node) *Node {
	return t.newOp(opGELU, t.apply(a, geluValue), a, nil, nil)
}

// SoftmaxRows applies a numerically-stable softmax along every row of a,
// whose rows form blocks equal runs, one per sequence. padMasks, when
// non-nil, holds one key mask per sequence, each as long as a row: row r of
// sequence g is normalized over the columns j with !padMasks[g][j], and
// masked columns get exactly 0. A nil entry masks nothing, so a sequence
// without padding needs no mask. This is the one place mask counts and
// lengths are checked. The
// backward rule runs fully in place: the softmax VJP needs only a per-row
// dot product, so gradients accumulate directly into the parent buffer
// with no scratch matrix.
func (t *Tape) SoftmaxRows(a *Node, blocks int, padMasks [][]bool) (*Node, error) {
	rows, cols := a.Value.Rows(), a.Value.Cols()
	if blocks <= 0 || rows%blocks != 0 {
		return nil, fmt.Errorf("autograd: %w: SoftmaxRows %d rows in %d blocks",
			tensor.ErrShape, rows, blocks)
	}
	if padMasks != nil && len(padMasks) != blocks {
		return nil, fmt.Errorf("autograd: SoftmaxRows %d masks for %d sequences", len(padMasks), blocks)
	}
	for g, m := range padMasks {
		if m != nil && len(m) != cols {
			return nil, fmt.Errorf("autograd: SoftmaxRows mask of sequence %d has length %d, want %d", g, len(m), cols)
		}
	}
	s := t.newMatrixUninit(rows, cols)
	tensor.SoftmaxRowsInto(s, a.Value, padMasks)
	return t.newOp(opSoftmaxRows, s, a, nil, nil), nil
}

// LayerNorm normalizes every row of x to zero mean / unit variance, then
// applies the learned gain and bias (both 1×C).
func (t *Tape) LayerNorm(x, gain, bias *Node, eps float64) (*Node, error) {
	rows, cols := x.Value.Rows(), x.Value.Cols()
	if gain.Value.Rows() != 1 || gain.Value.Cols() != cols ||
		bias.Value.Rows() != 1 || bias.Value.Cols() != cols {
		return nil, fmt.Errorf("autograd: %w: LayerNorm gain/bias must be 1x%d", tensor.ErrShape, cols)
	}
	v := t.newMatrixUninit(rows, cols)
	xhat := t.newMatrixUninit(rows, cols)
	invStd := t.newMatrixUninit(1, rows)
	isd := invStd.Data()
	gd, bd := gain.Value.Data(), bias.Value.Data()
	for i := 0; i < rows; i++ {
		xr, vr, hr := x.Value.Row(i), v.Row(i), xhat.Row(i)
		var mean float64
		for _, xv := range xr {
			mean += xv
		}
		mean /= float64(cols)
		var variance float64
		for _, xv := range xr {
			d := xv - mean
			variance += d * d
		}
		variance /= float64(cols)
		is := 1 / math.Sqrt(variance+eps)
		isd[i] = is
		for j, xv := range xr {
			h := (xv - mean) * is
			hr[j] = h
			vr[j] = h*gd[j] + bd[j]
		}
	}
	n := t.newOp(opLayerNorm, v, x, gain, bias)
	n.m1 = xhat
	n.m2 = invStd
	n.alpha = eps
	return n, nil
}

// Embedding gathers rows of table by ids: out row i = table row ids[i].
// The backward pass scatter-adds into the table gradient, so padding rows
// still receive (zero) updates only when referenced.
func (t *Tape) Embedding(table *Node, ids []int) (*Node, error) {
	cols := table.Value.Cols()
	v := t.newMatrixUninit(len(ids), cols)
	for i, id := range ids {
		if id < 0 || id >= table.Value.Rows() {
			return nil, fmt.Errorf("autograd: embedding id %d out of range [0,%d)", id, table.Value.Rows())
		}
		copy(v.Row(i), table.Value.Row(id))
	}
	n := t.newOp(opEmbedding, v, table, nil, nil)
	n.ints = t.takeInts(ids)
	return n, nil
}

// ConcatCols concatenates a (R×Ca) and b (R×Cb) into R×(Ca+Cb).
func (t *Tape) ConcatCols(a, b *Node) (*Node, error) {
	if a.Value.Rows() != b.Value.Rows() {
		return nil, fmt.Errorf("autograd: %w: ConcatCols rows %d vs %d",
			tensor.ErrShape, a.Value.Rows(), b.Value.Rows())
	}
	rows, ca := a.Value.Rows(), a.Value.Cols()
	v := t.newMatrixUninit(rows, ca+b.Value.Cols())
	for i := 0; i < rows; i++ {
		copy(v.Row(i)[:ca], a.Value.Row(i))
		copy(v.Row(i)[ca:], b.Value.Row(i))
	}
	return t.newOp(opConcatCols, v, a, b, nil), nil
}

// SliceCols returns columns [lo, hi) of a.
func (t *Tape) SliceCols(a *Node, lo, hi int) (*Node, error) {
	if lo < 0 || hi > a.Value.Cols() || lo > hi {
		return nil, fmt.Errorf("autograd: %w: SliceCols [%d,%d) of %d cols",
			tensor.ErrShape, lo, hi, a.Value.Cols())
	}
	rows := a.Value.Rows()
	v := t.newMatrixUninit(rows, hi-lo)
	for i := 0; i < rows; i++ {
		copy(v.Row(i), a.Value.Row(i)[lo:hi])
	}
	n := t.newOp(opSliceCols, v, a, nil, nil)
	n.iaux, n.jaux = lo, hi
	return n, nil
}

// SliceRows returns rows [lo, hi) of a.
func (t *Tape) SliceRows(a *Node, lo, hi int) (*Node, error) {
	if lo < 0 || hi > a.Value.Rows() || lo > hi {
		return nil, fmt.Errorf("autograd: %w: SliceRows [%d,%d) of %d rows",
			tensor.ErrShape, lo, hi, a.Value.Rows())
	}
	cols := a.Value.Cols()
	v := t.newMatrixUninit(hi-lo, cols)
	for i := lo; i < hi; i++ {
		copy(v.Row(i-lo), a.Value.Row(i))
	}
	n := t.newOp(opSliceRows, v, a, nil, nil)
	n.iaux, n.jaux = lo, hi
	return n, nil
}

// Mean returns the scalar mean of all elements of a.
func (t *Tape) Mean(a *Node) *Node {
	v := t.newMatrixUninit(1, 1)
	v.Set(0, 0, a.Value.Mean())
	return t.newOp(opMean, v, a, nil, nil)
}

// SumScalars adds a set of 1×1 nodes; used to combine per-example losses.
func (t *Tape) SumScalars(nodes ...*Node) (*Node, error) {
	v := t.newMatrixUninit(1, 1)
	var sum float64
	for _, a := range nodes {
		if a.Value.Rows() != 1 || a.Value.Cols() != 1 {
			return nil, fmt.Errorf("autograd: SumScalars got %dx%d node", a.Value.Rows(), a.Value.Cols())
		}
		sum += a.Value.At(0, 0)
	}
	v.Set(0, 0, sum)
	return t.newOpN(opSumScalars, v, nodes), nil
}

// Dropout zeroes elements with probability p at train time, scaling the
// survivors by 1/(1-p) (inverted dropout). When training is false it is the
// identity.
func (t *Tape) Dropout(a *Node, p float64, rng *tensor.RNG, training bool) *Node {
	if !training || p <= 0 {
		return a
	}
	keep := 1 - p
	mask := t.newMatrixUninit(a.Value.Rows(), a.Value.Cols())
	md := mask.Data()
	for i := range md {
		if rng.Float64() < keep {
			md[i] = 1 / keep
		} else {
			md[i] = 0
		}
	}
	v := t.newMatrixUninit(a.Value.Rows(), a.Value.Cols())
	vd, ad := v.Data(), a.Value.Data()
	for i, av := range ad {
		vd[i] = av * md[i]
	}
	n := t.newOp(opDropout, v, a, nil, nil)
	n.m1 = mask
	return n
}

// IgnoreIndex marks a target position excluded from the cross-entropy loss
// (non-masked positions in MLM training).
const IgnoreIndex = -1

// CrossEntropy computes the mean negative log-likelihood of targets under
// softmax(logits). Rows whose target is IgnoreIndex contribute nothing.
// Returns the scalar loss node and the number of counted rows.
func (t *Tape) CrossEntropy(logits *Node, targets []int) (*Node, int, error) {
	rows, cols := logits.Value.Rows(), logits.Value.Cols()
	if len(targets) != rows {
		return nil, 0, fmt.Errorf("autograd: CrossEntropy %d targets for %d rows", len(targets), rows)
	}
	probs := t.newMatrixUninit(rows, cols)
	tensor.SoftmaxRowsInto(probs, logits.Value, nil)
	counted := 0
	var total float64
	for i, tgt := range targets {
		if tgt == IgnoreIndex {
			continue
		}
		if tgt < 0 || tgt >= cols {
			return nil, 0, fmt.Errorf("autograd: CrossEntropy target %d out of range [0,%d)", tgt, cols)
		}
		counted++
		p := probs.At(i, tgt)
		if p < 1e-12 {
			p = 1e-12
		}
		total -= math.Log(p)
	}
	loss := 0.0
	if counted > 0 {
		loss = total / float64(counted)
	}
	v := t.newMatrixUninit(1, 1)
	v.Set(0, 0, loss)
	n := t.newOp(opCrossEntropy, v, logits, nil, nil)
	n.m1 = probs
	n.ints = t.takeInts(targets)
	n.iaux = counted
	return n, counted, nil
}

// GatherRows selects rows of a by index: out row i = a row rows[i]. The
// backward pass scatter-adds upstream gradients into the source rows, so an
// index may appear more than once. Used to pull [CLS] positions and masked
// MLM positions out of the flattened (B·T)×d batch layout.
func (t *Tape) GatherRows(a *Node, rows []int) (*Node, error) {
	cols := a.Value.Cols()
	v := t.newMatrixUninit(len(rows), cols)
	for i, r := range rows {
		if r < 0 || r >= a.Value.Rows() {
			return nil, fmt.Errorf("autograd: GatherRows index %d out of range [0,%d)", r, a.Value.Rows())
		}
		copy(v.Row(i), a.Value.Row(r))
	}
	n := t.newOp(opGatherRows, v, a, nil, nil)
	n.ints = t.takeInts(rows)
	return n, nil
}
