package autograd

import (
	"errors"
	"math"
	"testing"

	"clinfl/internal/tensor"
)

// checkGrad is a convenience wrapper asserting a max relative error bound.
func checkGrad(t *testing.T, leaves []*tensor.Matrix, f func(tp *Tape, ns []*Node) (*Node, error)) {
	t.Helper()
	rel, err := GradCheck(leaves, f, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if rel > 1e-4 {
		t.Fatalf("max relative gradient error %v > 1e-4", rel)
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	tp := NewTape()
	n := tp.Leaf(tensor.New(2, 2))
	if err := tp.Backward(n); !errors.Is(err, ErrNotScalar) {
		t.Fatalf("want ErrNotScalar, got %v", err)
	}
}

func TestBackwardWrongTape(t *testing.T) {
	t1, t2 := NewTape(), NewTape()
	n := t1.Leaf(tensor.New(1, 1))
	if err := t2.Backward(n); err == nil {
		t.Fatal("want error for cross-tape backward")
	}
}

func TestAddGrad(t *testing.T) {
	rng := tensor.NewRNG(1)
	a, b := rng.Normal(3, 4, 0, 1), rng.Normal(3, 4, 0, 1)
	checkGrad(t, []*tensor.Matrix{a, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		s, err := tp.Add(ns[0], ns[1])
		if err != nil {
			return nil, err
		}
		return tp.Mean(s), nil
	})
}

func TestSubGrad(t *testing.T) {
	rng := tensor.NewRNG(2)
	a, b := rng.Normal(2, 5, 0, 1), rng.Normal(2, 5, 0, 1)
	checkGrad(t, []*tensor.Matrix{a, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		s, err := tp.Sub(ns[0], ns[1])
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(s, s)
		if err != nil {
			return nil, err
		}
		return tp.Mean(sq), nil
	})
}

func TestMulGrad(t *testing.T) {
	rng := tensor.NewRNG(3)
	a, b := rng.Normal(3, 3, 0, 1), rng.Normal(3, 3, 0, 1)
	checkGrad(t, []*tensor.Matrix{a, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		s, err := tp.Mul(ns[0], ns[1])
		if err != nil {
			return nil, err
		}
		return tp.Mean(s), nil
	})
}

func TestMatMulGrad(t *testing.T) {
	rng := tensor.NewRNG(4)
	a, b := rng.Normal(3, 4, 0, 1), rng.Normal(4, 2, 0, 1)
	checkGrad(t, []*tensor.Matrix{a, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		s, err := tp.MatMul(ns[0], ns[1], 1)
		if err != nil {
			return nil, err
		}
		return tp.Mean(s), nil
	})
}

func TestMatMulTransBGrad(t *testing.T) {
	rng := tensor.NewRNG(5)
	a, b := rng.Normal(3, 4, 0, 1), rng.Normal(5, 4, 0, 1)
	checkGrad(t, []*tensor.Matrix{a, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		s, err := tp.MatMulTransB(ns[0], ns[1], 1, 1)
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(s, s)
		if err != nil {
			return nil, err
		}
		return tp.Mean(sq), nil
	})
}

func TestActivationGrads(t *testing.T) {
	acts := map[string]func(tp *Tape, n *Node) *Node{
		"tanh":    func(tp *Tape, n *Node) *Node { return tp.Tanh(n) },
		"sigmoid": func(tp *Tape, n *Node) *Node { return tp.Sigmoid(n) },
		"gelu":    func(tp *Tape, n *Node) *Node { return tp.GELU(n) },
	}
	for name, act := range acts {
		act := act
		t.Run(name, func(t *testing.T) {
			x := tensor.NewRNG(6).Normal(4, 4, 0, 2)
			checkGrad(t, []*tensor.Matrix{x}, func(tp *Tape, ns []*Node) (*Node, error) {
				return tp.Mean(act(tp, ns[0])), nil
			})
		})
	}
}

func TestSoftmaxRowsGrad(t *testing.T) {
	x := tensor.NewRNG(7).Normal(3, 5, 0, 1)
	checkGrad(t, []*tensor.Matrix{x}, func(tp *Tape, ns []*Node) (*Node, error) {
		s, err := tp.SoftmaxRows(ns[0], 1, nil)
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(s, s)
		if err != nil {
			return nil, err
		}
		return tp.Mean(sq), nil
	})
}

func TestSoftmaxRowsSumsToOne(t *testing.T) {
	tp := NewTape()
	x := tp.Constant(tensor.NewRNG(8).Normal(4, 6, 0, 3))
	s, err := tp.SoftmaxRows(x, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		var sum float64
		for _, v := range s.Value.Row(i) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestLayerNormGrad(t *testing.T) {
	rng := tensor.NewRNG(9)
	x := rng.Normal(3, 6, 0, 2)
	gain := rng.Normal(1, 6, 1, 0.1)
	bias := rng.Normal(1, 6, 0, 0.1)
	checkGrad(t, []*tensor.Matrix{x, gain, bias}, func(tp *Tape, ns []*Node) (*Node, error) {
		y, err := tp.LayerNorm(ns[0], ns[1], ns[2], 1e-5)
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(y, y)
		if err != nil {
			return nil, err
		}
		return tp.Mean(sq), nil
	})
}

func TestLayerNormNormalizes(t *testing.T) {
	tp := NewTape()
	rng := tensor.NewRNG(10)
	x := tp.Constant(rng.Normal(5, 16, 3, 4))
	gain := tensor.New(1, 16)
	gain.Fill(1)
	y, err := tp.LayerNorm(x, tp.Constant(gain), tp.Constant(tensor.New(1, 16)), 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		row := y.Value.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(len(row))
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("row %d mean %v", i, mean)
		}
		var variance float64
		for _, v := range row {
			variance += (v - mean) * (v - mean)
		}
		variance /= float64(len(row))
		if math.Abs(variance-1) > 1e-6 {
			t.Fatalf("row %d variance %v", i, variance)
		}
	}
}

func TestEmbeddingGradScatter(t *testing.T) {
	table := tensor.NewRNG(11).Normal(5, 3, 0, 1)
	ids := []int{2, 2, 4}
	tp := NewTape()
	tn := tp.Leaf(table)
	emb, err := tp.Embedding(tn, ids)
	if err != nil {
		t.Fatal(err)
	}
	loss := tp.Mean(emb)
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	// Row 2 referenced twice, row 4 once, others zero.
	g := tn.Grad
	per := 1.0 / 9.0 // mean over 3x3 output
	for j := 0; j < 3; j++ {
		if math.Abs(g.At(2, j)-2*per) > 1e-12 {
			t.Fatalf("row2 grad %v, want %v", g.At(2, j), 2*per)
		}
		if math.Abs(g.At(4, j)-per) > 1e-12 {
			t.Fatalf("row4 grad %v, want %v", g.At(4, j), per)
		}
		if g.At(0, j) != 0 {
			t.Fatal("unreferenced row got gradient")
		}
	}
}

func TestEmbeddingOutOfRange(t *testing.T) {
	tp := NewTape()
	tn := tp.Leaf(tensor.New(3, 2))
	if _, err := tp.Embedding(tn, []int{3}); err == nil {
		t.Fatal("want out-of-range error")
	}
	if _, err := tp.Embedding(tn, []int{-1}); err == nil {
		t.Fatal("want negative id error")
	}
}

func TestConcatColsGrad(t *testing.T) {
	rng := tensor.NewRNG(12)
	a, b := rng.Normal(3, 2, 0, 1), rng.Normal(3, 4, 0, 1)
	checkGrad(t, []*tensor.Matrix{a, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		c, err := tp.ConcatCols(ns[0], ns[1])
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(c, c)
		if err != nil {
			return nil, err
		}
		return tp.Mean(sq), nil
	})
}

func TestConcatRowsGrad(t *testing.T) {
	rng := tensor.NewRNG(13)
	a, b := rng.Normal(2, 3, 0, 1), rng.Normal(4, 3, 0, 1)
	checkGrad(t, []*tensor.Matrix{a, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		c, err := tp.ConcatRows(ns[0], ns[1])
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(c, c)
		if err != nil {
			return nil, err
		}
		return tp.Mean(sq), nil
	})
}

func TestSliceGrads(t *testing.T) {
	rng := tensor.NewRNG(14)
	x := rng.Normal(4, 6, 0, 1)
	checkGrad(t, []*tensor.Matrix{x}, func(tp *Tape, ns []*Node) (*Node, error) {
		c, err := tp.SliceCols(ns[0], 1, 4)
		if err != nil {
			return nil, err
		}
		r, err := tp.SliceRows(c, 1, 3)
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(r, r)
		if err != nil {
			return nil, err
		}
		return tp.Mean(sq), nil
	})
}

func TestAddRowVectorGrad(t *testing.T) {
	rng := tensor.NewRNG(16)
	x, b := rng.Normal(4, 3, 0, 1), rng.Normal(1, 3, 0, 1)
	checkGrad(t, []*tensor.Matrix{x, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		y, err := tp.AddRowVector(ns[0], ns[1])
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(y, y)
		if err != nil {
			return nil, err
		}
		return tp.Mean(sq), nil
	})
}

func TestCrossEntropyGrad(t *testing.T) {
	logits := tensor.NewRNG(17).Normal(4, 3, 0, 1)
	targets := []int{0, 2, 1, IgnoreIndex}
	checkGrad(t, []*tensor.Matrix{logits}, func(tp *Tape, ns []*Node) (*Node, error) {
		loss, _, err := tp.CrossEntropy(ns[0], targets)
		return loss, err
	})
}

func TestCrossEntropyCountsIgnored(t *testing.T) {
	tp := NewTape()
	logits := tp.Constant(tensor.New(3, 2))
	_, counted, err := tp.CrossEntropy(logits, []int{0, IgnoreIndex, 1})
	if err != nil {
		t.Fatal(err)
	}
	if counted != 2 {
		t.Fatalf("counted = %d, want 2", counted)
	}
}

func TestCrossEntropyUniformLogitsLossIsLogC(t *testing.T) {
	tp := NewTape()
	logits := tp.Constant(tensor.New(2, 8)) // all-zero logits = uniform distribution
	loss, _, err := tp.CrossEntropy(logits, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(8)
	if math.Abs(loss.Value.At(0, 0)-want) > 1e-12 {
		t.Fatalf("uniform CE loss = %v, want ln(8)=%v", loss.Value.At(0, 0), want)
	}
}

func TestCrossEntropyErrors(t *testing.T) {
	tp := NewTape()
	logits := tp.Constant(tensor.New(2, 3))
	if _, _, err := tp.CrossEntropy(logits, []int{0}); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, _, err := tp.CrossEntropy(logits, []int{0, 7}); err == nil {
		t.Fatal("want out-of-range target error")
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	tp := NewTape()
	x := tp.Constant(tensor.NewRNG(18).Normal(3, 3, 0, 1))
	y := tp.Dropout(x, 0.5, tensor.NewRNG(1), false)
	if y != x {
		t.Fatal("eval-mode dropout should be identity")
	}
}

func TestDropoutTrainScalesSurvivors(t *testing.T) {
	tp := NewTape()
	src := tensor.New(100, 100)
	src.Fill(1)
	x := tp.Constant(src)
	y := tp.Dropout(x, 0.25, tensor.NewRNG(2), true)
	var zeros, scaled int
	for _, v := range y.Value.Data() {
		switch {
		case v == 0:
			zeros++
		case math.Abs(v-1/0.75) < 1e-12:
			scaled++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	frac := float64(zeros) / 10000
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("dropped fraction %v far from p=0.25", frac)
	}
	if scaled == 0 {
		t.Fatal("no survivors scaled")
	}
}

func TestGradAccumulationAcrossReuse(t *testing.T) {
	// y = x + x must give dy/dx = 2.
	x := tensor.MustFromSlice(1, 1, []float64{3})
	tp := NewTape()
	xn := tp.Leaf(x)
	y, err := tp.Add(xn, xn)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Backward(tp.Mean(y)); err != nil {
		t.Fatal(err)
	}
	if got := xn.Grad.At(0, 0); got != 2 {
		t.Fatalf("grad = %v, want 2", got)
	}
}

func TestTapeReset(t *testing.T) {
	tp := NewTape()
	tp.Leaf(tensor.New(1, 1))
	if tp.Len() != 1 {
		t.Fatalf("len = %d", tp.Len())
	}
	tp.Reset()
	if tp.Len() != 0 {
		t.Fatalf("after reset len = %d", tp.Len())
	}
}

func TestScaleGrad(t *testing.T) {
	x := tensor.NewRNG(19).Normal(2, 2, 0, 1)
	checkGrad(t, []*tensor.Matrix{x}, func(tp *Tape, ns []*Node) (*Node, error) {
		return tp.Mean(tp.Scale(2.5, ns[0])), nil
	})
}

func TestSumScalarsGrad(t *testing.T) {
	rng := tensor.NewRNG(20)
	a, b := rng.Normal(2, 2, 0, 1), rng.Normal(2, 2, 0, 1)
	checkGrad(t, []*tensor.Matrix{a, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		return tp.SumScalars(tp.Mean(ns[0]), tp.Mean(ns[1]))
	})
}

// TestParallelBackwardMatchesGradcheck checks the reverse scan against
// finite differences on a graph with real branch structure: x×W fans into
// twelve column-slice heads, each a softmax(tanh)×transpose block, that
// re-converge in one sum, so every head accumulates into the shared
// parent's gradient.
func TestParallelBackwardMatchesGradcheck(t *testing.T) {
	rng := tensor.NewRNG(3)
	w := rng.Normal(12, 48, 0, 0.5)
	x := rng.Normal(8, 12, 0, 1)
	build := func(tape *Tape, params []*Node) (*Node, error) {
		h, err := tape.MatMul(tape.Constant(x), params[0], 1)
		if err != nil {
			return nil, err
		}
		var scalars []*Node
		for hd := 0; hd < 12; hd++ {
			s, err := tape.SliceCols(h, hd*4, (hd+1)*4)
			if err != nil {
				return nil, err
			}
			a, err := tape.SoftmaxRows(tape.Tanh(s), 1, nil)
			if err != nil {
				return nil, err
			}
			p, err := tape.MatMulTransB(a, s, 1, 1)
			if err != nil {
				return nil, err
			}
			scalars = append(scalars, tape.Mean(tape.GELU(p)))
		}
		return tape.SumScalars(scalars...)
	}
	maxRel, err := GradCheck([]*tensor.Matrix{w}, build, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if maxRel > 2e-6 {
		t.Fatalf("gradcheck max relative error %.3g", maxRel)
	}
}
