package autograd

import (
	"math"
	"testing"

	"clinfl/internal/tensor"
)

// Gradient checks and fused-vs-unfused equivalence for the fused tape
// kernels (Affine, LinearGELU, the scaled block score matmul) and for the
// in-place softmax backward.

func TestAffineGrad(t *testing.T) {
	rng := tensor.NewRNG(20)
	x, w, b := rng.Normal(5, 3, 0, 1), rng.Normal(3, 4, 0, 1), rng.Normal(1, 4, 0, 1)
	checkGrad(t, []*tensor.Matrix{x, w, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		h, err := tp.Affine(ns[0], ns[1], ns[2])
		if err != nil {
			return nil, err
		}
		return tp.Mean(h), nil
	})
}

func TestLinearGELUGrad(t *testing.T) {
	rng := tensor.NewRNG(21)
	x, w, b := rng.Normal(4, 3, 0, 1), rng.Normal(3, 5, 0, 1), rng.Normal(1, 5, 0, 0.5)
	checkGrad(t, []*tensor.Matrix{x, w, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		h, err := tp.LinearGELU(ns[0], ns[1], ns[2])
		if err != nil {
			return nil, err
		}
		return tp.Mean(h), nil
	})
}

func TestBlockMatMulTransBScaledGrad(t *testing.T) {
	rng := tensor.NewRNG(22)
	a, b := rng.Normal(6, 4, 0, 1), rng.Normal(6, 4, 0, 1)
	checkGrad(t, []*tensor.Matrix{a, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		s, err := tp.MatMulTransB(ns[0], ns[1], 2, 1/math.Sqrt(4))
		if err != nil {
			return nil, err
		}
		return tp.Mean(s), nil
	})
}

// TestSoftmaxRowsInPlaceBackwardGrad pins the in-place softmax VJP (which
// accumulates directly into the parent gradient buffer) against finite
// differences, including the accumulate-into-nonzero-gradient case via a
// second use of the same leaf.
func TestSoftmaxRowsInPlaceBackwardGrad(t *testing.T) {
	rng := tensor.NewRNG(23)
	a := rng.Normal(4, 6, 0, 1)
	checkGrad(t, []*tensor.Matrix{a}, func(tp *Tape, ns []*Node) (*Node, error) {
		s, err := tp.SoftmaxRows(ns[0], 1, nil)
		if err != nil {
			return nil, err
		}
		// Reuse the leaf so its gradient buffer receives both the softmax
		// VJP and a direct contribution, exercising the += path.
		sum, err := tp.Add(s, ns[0])
		if err != nil {
			return nil, err
		}
		return tp.Mean(sum), nil
	})
}

// runBackward builds loss = mean(f(leaves)) on a fresh tape and returns the
// leaf gradients.
func runBackward(t *testing.T, leaves []*tensor.Matrix, f func(tp *Tape, ns []*Node) (*Node, error)) []*tensor.Matrix {
	t.Helper()
	tp := NewTape()
	ns := make([]*Node, len(leaves))
	for i, m := range leaves {
		ns[i] = tp.Leaf(m)
	}
	out, err := f(tp, ns)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Backward(tp.Mean(out)); err != nil {
		t.Fatal(err)
	}
	grads := make([]*tensor.Matrix, len(ns))
	for i, n := range ns {
		grads[i] = n.Grad
	}
	return grads
}

func assertClose(t *testing.T, name string, got, want *tensor.Matrix) {
	t.Helper()
	if !got.AllClose(want, 1e-9, 1e-9) {
		t.Fatalf("%s: fused and unfused diverge beyond 1e-9", name)
	}
}

// TestLinearGELUMatchesUnfused pins the fused kernel against the three-node
// chain (MatMul + AddRowVector + GELU) it replaced: values and all three
// gradients must agree to 1e-9.
func TestLinearGELUMatchesUnfused(t *testing.T) {
	rng := tensor.NewRNG(24)
	x, w, b := rng.Normal(6, 4, 0, 1), rng.Normal(4, 7, 0, 1), rng.Normal(1, 7, 0, 0.5)

	var fusedVal, unfusedVal *tensor.Matrix
	fused := runBackward(t, []*tensor.Matrix{x, w, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		h, err := tp.LinearGELU(ns[0], ns[1], ns[2])
		if err != nil {
			return nil, err
		}
		fusedVal = h.Value
		return h, nil
	})
	unfused := runBackward(t, []*tensor.Matrix{x, w, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		h, err := tp.MatMul(ns[0], ns[1], 1)
		if err != nil {
			return nil, err
		}
		h, err = tp.AddRowVector(h, ns[2])
		if err != nil {
			return nil, err
		}
		h = tp.GELU(h)
		unfusedVal = h.Value
		return h, nil
	})

	assertClose(t, "LinearGELU value", fusedVal, unfusedVal)
	for i, name := range []string{"x grad", "w grad", "b grad"} {
		assertClose(t, "LinearGELU "+name, fused[i], unfused[i])
	}
}

// TestAffineMatchesUnfused pins Affine against MatMul + AddRowVector.
func TestAffineMatchesUnfused(t *testing.T) {
	rng := tensor.NewRNG(25)
	x, w, b := rng.Normal(5, 3, 0, 1), rng.Normal(3, 6, 0, 1), rng.Normal(1, 6, 0, 1)

	var fusedVal, unfusedVal *tensor.Matrix
	fused := runBackward(t, []*tensor.Matrix{x, w, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		h, err := tp.Affine(ns[0], ns[1], ns[2])
		if err != nil {
			return nil, err
		}
		fusedVal = h.Value
		return h, nil
	})
	unfused := runBackward(t, []*tensor.Matrix{x, w, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		h, err := tp.MatMul(ns[0], ns[1], 1)
		if err != nil {
			return nil, err
		}
		h, err = tp.AddRowVector(h, ns[2])
		if err != nil {
			return nil, err
		}
		unfusedVal = h.Value
		return h, nil
	})

	assertClose(t, "Affine value", fusedVal, unfusedVal)
	for i, name := range []string{"x grad", "w grad", "b grad"} {
		assertClose(t, "Affine "+name, fused[i], unfused[i])
	}
}

// TestScaledBlockMatMulMatchesUnfused pins the folded score scale against
// the unscaled MatMulTransB + Scale chain it replaced.
func TestScaledBlockMatMulMatchesUnfused(t *testing.T) {
	rng := tensor.NewRNG(26)
	a, b := rng.Normal(8, 5, 0, 1), rng.Normal(8, 5, 0, 1)
	const blocks = 2
	alpha := 1 / math.Sqrt(5)

	var fusedVal, unfusedVal *tensor.Matrix
	fused := runBackward(t, []*tensor.Matrix{a, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		s, err := tp.MatMulTransB(ns[0], ns[1], blocks, alpha)
		if err != nil {
			return nil, err
		}
		fusedVal = s.Value
		return s, nil
	})
	unfused := runBackward(t, []*tensor.Matrix{a, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		s, err := tp.MatMulTransB(ns[0], ns[1], blocks, 1)
		if err != nil {
			return nil, err
		}
		s = tp.Scale(alpha, s)
		unfusedVal = s.Value
		return s, nil
	})

	assertClose(t, "scaled block score value", fusedVal, unfusedVal)
	assertClose(t, "scaled block score a grad", fused[0], unfused[0])
	assertClose(t, "scaled block score b grad", fused[1], unfused[1])
}

// TestArenaTapeMatchesHeapTape runs the same composite graph on a heap tape
// and an arena tape across several Reset cycles: losses and gradients must
// be bit-identical, and the arena must stop growing after the first cycle.
func TestArenaTapeMatchesHeapTape(t *testing.T) {
	rng := tensor.NewRNG(27)
	x := rng.Normal(6, 4, 0, 1)
	w := rng.Normal(4, 4, 0, 1)
	b := rng.Normal(1, 4, 0, 0.5)

	build := func(tp *Tape) (loss float64, wGrad *tensor.Matrix) {
		xn, wn, bn := tp.Constant(x), tp.Leaf(w), tp.Leaf(b)
		h, err := tp.LinearGELU(xn, wn, bn)
		if err != nil {
			t.Fatal(err)
		}
		s, err := tp.SoftmaxRows(h, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		l := tp.Mean(s)
		if err := tp.Backward(l); err != nil {
			t.Fatal(err)
		}
		return l.Value.At(0, 0), wn.Grad
	}

	heapLoss, heapGrad := build(NewTape())

	arena := tensor.NewArena()
	tp := NewTapeArena(arena)
	var footAfterFirst int
	for cycle := 0; cycle < 3; cycle++ {
		tp.Reset()
		loss, grad := build(tp)
		if loss != heapLoss {
			t.Fatalf("cycle %d: arena loss %v != heap loss %v", cycle, loss, heapLoss)
		}
		if !grad.Equal(heapGrad) {
			t.Fatalf("cycle %d: arena gradient differs from heap gradient", cycle)
		}
		if cycle == 0 {
			footAfterFirst = arena.Footprint()
		} else if arena.Footprint() != footAfterFirst {
			t.Fatalf("cycle %d: arena footprint grew %d -> %d after warmup",
				cycle, footAfterFirst, arena.Footprint())
		}
	}
}
