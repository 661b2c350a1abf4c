// Package autograd implements tape-based reverse-mode automatic
// differentiation over tensor.Matrix values.
//
// A Tape records every differentiable operation in execution order; calling
// Backward on a scalar output node walks the tape in reverse, applying each
// node's vector-Jacobian product to accumulate gradients into parameters.
// The design mirrors the define-by-run model of PyTorch's autograd, which
// the paper's reference implementation relies on.
//
// Allocation model: a Node carries an opcode plus parent pointers and small
// auxiliary fields instead of a backward closure, so recording an op
// allocates no closures; the backward pass is a switch over opcodes (see
// backward.go) that accumulates vector-Jacobian products in place into
// parent gradient buffers. Node objects, auxiliary int/pointer slices, and —
// when the tape is built with an arena — every value, gradient and scratch
// matrix are recycled by Reset, so a steady-state forward+backward pass
// allocates nothing.
package autograd

import (
	"errors"
	"fmt"

	"clinfl/internal/tensor"
)

// ErrNotScalar is returned by Backward when called on a non-1x1 node.
var ErrNotScalar = errors.New("autograd: Backward requires a scalar (1x1) node")

// opcode identifies the operation that produced a node; backward.go holds
// the vector-Jacobian product for each.
type opcode uint8

const (
	opLeaf opcode = iota
	opConst
	opAdd
	opSub
	opMul
	opScale
	opMatMul       // iaux=block count
	opMatMulTransB // iaux=block count, alpha=folded scale
	opAffine       // a×b + row vector c (fused Linear)
	opLinearGELU   // GELU(a×b + row vector c); m1 = pre-activation
	opAddRowVector
	opTanh
	opSigmoid
	opGELU
	opSoftmaxRows
	opLayerNorm // a=x, b=gain, c=bias; m1 = xhat, m2 = 1×rows inverse std
	opEmbedding // a=table, ints=ids
	opConcatCols
	opConcatRows // parents
	opSliceCols  // iaux=lo, jaux=hi
	opSliceRows  // iaux=lo, jaux=hi
	opMean
	opSumScalars // parents
	opDropout    // m1 = mask
	opCrossEntropy
	opGatherRows // ints=row indices
)

// Node is a value in the computation graph together with its gradient slot
// and the opcode + operands that reproduce its vector-Jacobian product.
type Node struct {
	// Value is the forward result held by this node. On an arena-backed
	// tape it lives in the arena and is invalidated by Tape.Reset.
	Value *tensor.Matrix
	// Grad accumulates dLoss/dValue during Backward. It is nil until first
	// needed and is likewise recycled by Reset.
	Grad *tensor.Matrix

	op           opcode
	requiresGrad bool
	a, b, c      *Node          // fixed-arity parents
	parents      []*Node        // variadic parents (SumScalars, ConcatRows)
	alpha        float64        // scalar aux: Scale factor, folded matmul scale
	iaux, jaux   int            // int aux: slice bounds, block count, CE counted rows
	ints         []int          // index aux: embedding ids, gather rows, CE targets
	m1, m2       *tensor.Matrix // saved forward aux (pre-activation, probs, mask, xhat...)
	tape         *Tape
}

// ensureGrad allocates the gradient buffer on first use.
func (n *Node) ensureGrad() *tensor.Matrix {
	if n.Grad == nil {
		n.Grad = n.tape.newMatrix(n.Value.Rows(), n.Value.Cols())
	}
	return n.Grad
}

// accumulate adds g into the node's gradient if the node participates in
// differentiation.
func (n *Node) accumulate(g *tensor.Matrix) {
	if n == nil || !n.requiresGrad {
		return
	}
	if err := n.ensureGrad().AddInPlace(g); err != nil {
		// Shapes are constructed by the ops themselves; a mismatch is a
		// programming error inside this package, not a user error.
		panic(fmt.Sprintf("autograd: gradient shape mismatch: %v", err))
	}
}

// slabPool hands out sub-slices of large reusable slabs; reset rewinds it
// without freeing. Returned slices have stale contents — callers overwrite
// every element. Mirrors tensor.Arena for non-matrix auxiliary data.
type slabPool[T any] struct {
	slabs     [][]T
	slab, off int
}

func (p *slabPool[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	for p.slab >= len(p.slabs) || p.off+n > len(p.slabs[p.slab]) {
		if p.slab < len(p.slabs) {
			p.slab++
			p.off = 0
			continue
		}
		size := 256
		if l := len(p.slabs); l > 0 {
			size = 2 * len(p.slabs[l-1])
		}
		if size < n {
			size = n
		}
		p.slabs = append(p.slabs, make([]T, size))
		p.off = 0
	}
	s := p.slabs[p.slab][p.off : p.off+n : p.off+n]
	p.off += n
	return s
}

func (p *slabPool[T]) reset() { p.slab, p.off = 0, 0 }

// Tape records operations for reverse-mode differentiation.
//
// Tapes are single-goroutine objects: one forward pass and its backward pass
// must happen on the same tape without concurrent use. Federated clients
// each own their tapes.
type Tape struct {
	nodes []*Node
	spare []*Node // recycled Node objects, reused by newNode after Reset

	arena   *tensor.Arena // nil = heap-allocate values/gradients
	intPool slabPool[int]
	ptrPool slabPool[*Node]
}

// NewTape returns an empty tape whose values and gradients live on the heap.
func NewTape() *Tape {
	return &Tape{nodes: make([]*Node, 0, 256)}
}

// NewTapeArena returns an empty tape that draws every node value, gradient
// and backward scratch matrix from arena. Reset recycles the arena along
// with the op list, so repeated forward+backward passes reuse all memory;
// see tensor.Arena for the lifetime rule.
func NewTapeArena(arena *tensor.Arena) *Tape {
	t := NewTape()
	t.arena = arena
	return t
}

// Arena returns the tape's arena (nil for a heap tape).
func (t *Tape) Arena() *tensor.Arena { return t.arena }

// newMatrix allocates a zeroed matrix from the arena, or the heap when the
// tape has none.
func (t *Tape) newMatrix(rows, cols int) *tensor.Matrix {
	if t.arena != nil {
		return t.arena.Get(rows, cols)
	}
	return tensor.New(rows, cols)
}

// newMatrixUninit allocates without zeroing, for values every element of
// which is written before being read (assign-mode matmuls, elementwise
// maps). Heap-backed tapes still hand out zeroed memory (make does), but
// arena-backed steady-state steps skip the clearing pass entirely.
func (t *Tape) newMatrixUninit(rows, cols int) *tensor.Matrix {
	if t.arena != nil {
		return t.arena.GetUninit(rows, cols)
	}
	return tensor.New(rows, cols)
}

// Reset clears the tape for reuse between training steps: node objects move
// to the spare pool, auxiliary slab pools rewind, and the arena (if any) is
// reset, invalidating every matrix produced since the previous Reset.
func (t *Tape) Reset() {
	t.spare = append(t.spare, t.nodes...)
	t.nodes = t.nodes[:0]
	t.intPool.reset()
	t.ptrPool.reset()
	if t.arena != nil {
		t.arena.Reset()
	}
}

// Len returns the number of recorded nodes.
func (t *Tape) Len() int { return len(t.nodes) }

// newNode returns a zeroed Node, recycling one retired by Reset when
// available.
func (t *Tape) newNode() *Node {
	if k := len(t.spare); k > 0 {
		n := t.spare[k-1]
		t.spare = t.spare[:k-1]
		*n = Node{}
		return n
	}
	return &Node{}
}

// record appends a node produced by an operation.
func (t *Tape) record(n *Node) *Node {
	t.nodes = append(t.nodes, n)
	return n
}

// Leaf wraps a parameter matrix as a differentiable graph input. The same
// matrix may be wrapped on many tapes across steps; gradients accumulate in
// the returned node, not the matrix.
func (t *Tape) Leaf(v *tensor.Matrix) *Node {
	n := t.newNode()
	n.op = opLeaf
	n.Value = v
	n.requiresGrad = true
	n.tape = t
	return t.record(n)
}

// Constant wraps a matrix that does not require gradients (inputs, masks).
func (t *Tape) Constant(v *tensor.Matrix) *Node {
	n := t.newNode()
	n.op = opConst
	n.Value = v
	n.tape = t
	return t.record(n)
}

// newOp records an op node with up to three fixed parents; requiresGrad is
// the union of the parents'.
func (t *Tape) newOp(op opcode, v *tensor.Matrix, a, b, c *Node) *Node {
	n := t.newNode()
	n.op = op
	n.Value = v
	n.a, n.b, n.c = a, b, c
	n.requiresGrad = (a != nil && a.requiresGrad) ||
		(b != nil && b.requiresGrad) || (c != nil && c.requiresGrad)
	n.tape = t
	return t.record(n)
}

// newOpN records an op node with a variadic parent list, which is copied
// into the tape's recycled pointer pool.
func (t *Tape) newOpN(op opcode, v *tensor.Matrix, parents []*Node) *Node {
	n := t.newNode()
	n.op = op
	n.Value = v
	n.parents = t.ptrPool.take(len(parents))
	copy(n.parents, parents)
	for _, p := range parents {
		if p != nil && p.requiresGrad {
			n.requiresGrad = true
			break
		}
	}
	n.tape = t
	return t.record(n)
}

// takeInts copies ids into the tape's recycled int pool (callers may mutate
// their slice after the op records it).
func (t *Tape) takeInts(ids []int) []int {
	s := t.intPool.take(len(ids))
	copy(s, ids)
	return s
}

// Backward runs reverse-mode accumulation from the scalar node loss.
// After it returns, every Leaf that influenced loss holds dLoss/dLeaf in
// its Grad field.
//
// The replay is one reverse scan on the calling goroutine; the kernels
// inside each node's rule fan out on the shared pool themselves.
func (t *Tape) Backward(loss *Node) error {
	if loss.Value.Rows() != 1 || loss.Value.Cols() != 1 {
		return fmt.Errorf("%w: got %dx%d", ErrNotScalar, loss.Value.Rows(), loss.Value.Cols())
	}
	if loss.tape != t {
		return errors.New("autograd: loss node belongs to a different tape")
	}
	seed := loss.ensureGrad()
	seed.Set(0, 0, seed.At(0, 0)+1)
	// Nodes were appended in execution order, so reverse order is a valid
	// topological order of the DAG.
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.op != opLeaf && n.op != opConst && n.requiresGrad && n.Grad != nil {
			n.backward()
		}
	}
	return nil
}
