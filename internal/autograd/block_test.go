package autograd

import (
	"math"
	"testing"

	"clinfl/internal/tensor"
)

func TestBlockMatMulGrad(t *testing.T) {
	rng := tensor.NewRNG(21)
	const block = 3
	a := rng.Normal(2*block, block, 0, 1)
	b := rng.Normal(2*block, 4, 0, 1)
	checkGrad(t, []*tensor.Matrix{a, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		v, err := tp.MatMul(ns[0], ns[1], 2)
		if err != nil {
			return nil, err
		}
		return tp.Mean(v), nil
	})
}

func TestBlockMatMulTransBGrad(t *testing.T) {
	rng := tensor.NewRNG(22)
	const block = 3
	a := rng.Normal(2*block, 5, 0, 1)
	b := rng.Normal(2*block, 5, 0, 1)
	checkGrad(t, []*tensor.Matrix{a, b}, func(tp *Tape, ns []*Node) (*Node, error) {
		v, err := tp.MatMulTransB(ns[0], ns[1], 2, 1)
		if err != nil {
			return nil, err
		}
		return tp.Mean(v), nil
	})
}

func TestBlockSoftmaxRowsGradUnmasked(t *testing.T) {
	rng := tensor.NewRNG(23)
	const block = 4
	a := rng.Normal(2*block, block, 0, 1)
	w := rng.Normal(2*block, block, 0, 1) // weight so the mean sees asymmetric upstream grads
	checkGrad(t, []*tensor.Matrix{a}, func(tp *Tape, ns []*Node) (*Node, error) {
		s, err := tp.SoftmaxRows(ns[0], 2, nil)
		if err != nil {
			return nil, err
		}
		v, err := tp.Mul(s, tp.Constant(w))
		if err != nil {
			return nil, err
		}
		return tp.Mean(v), nil
	})
}

func TestBlockSoftmaxRowsGradMasked(t *testing.T) {
	rng := tensor.NewRNG(24)
	const block = 4
	a := rng.Normal(2*block, block, 0, 1)
	w := rng.Normal(2*block, block, 0, 1)
	padMasks := [][]bool{
		{false, false, true, true},
		nil, // second sequence unpadded
	}
	checkGrad(t, []*tensor.Matrix{a}, func(tp *Tape, ns []*Node) (*Node, error) {
		s, err := tp.SoftmaxRows(ns[0], 2, padMasks)
		if err != nil {
			return nil, err
		}
		v, err := tp.Mul(s, tp.Constant(w))
		if err != nil {
			return nil, err
		}
		return tp.Mean(v), nil
	})
}

func TestBlockSoftmaxRowsMatchesAdditiveMask(t *testing.T) {
	// The batched exclusion mask must reproduce the legacy dense additive
	// -1e9 mask bit for bit: exp(x-1e9) underflows to exactly 0 in float64.
	rng := tensor.NewRNG(25)
	const block = 5
	scores := rng.Normal(block, block, 0, 1)
	padMask := []bool{false, false, false, true, true}

	tp := NewTape()
	got, err := tp.SoftmaxRows(tp.Constant(scores), 1, [][]bool{padMask})
	if err != nil {
		t.Fatal(err)
	}

	masked := scores.Clone()
	for j, pad := range padMask {
		if !pad {
			continue
		}
		for i := 0; i < block; i++ {
			masked.Set(i, j, masked.At(i, j)-1e9)
		}
	}
	want := tensor.New(block, block)
	tensor.SoftmaxRowsInto(want, masked, nil)
	if !got.Value.AllClose(want, 0, 1e-15) {
		t.Fatalf("masked block softmax diverges from additive mask:\n%v\nvs\n%v", got.Value, want)
	}
	for i := 0; i < block; i++ {
		for j, pad := range padMask {
			if pad && got.Value.At(i, j) != 0 {
				t.Fatalf("padded key (%d,%d) got weight %v", i, j, got.Value.At(i, j))
			}
		}
	}
}

func TestBlockSoftmaxRowsAllMaskedRowIsZero(t *testing.T) {
	tp := NewTape()
	scores := tensor.New(2, 2)
	scores.Fill(3)
	s, err := tp.SoftmaxRows(tp.Constant(scores), 1, [][]bool{{true, true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s.Value.Data() {
		if v != 0 {
			t.Fatalf("fully-masked block produced weight %v", v)
		}
	}
}

func TestBlockSoftmaxRowsShapeErrors(t *testing.T) {
	tp := NewTape()
	a := tp.Constant(tensor.New(6, 3))
	if _, err := tp.SoftmaxRows(a, 4, nil); err == nil {
		t.Fatal("want error: rows not divisible into blocks")
	}
	if _, err := tp.SoftmaxRows(a, 0, nil); err == nil {
		t.Fatal("want error: non-positive block count")
	}
	b := tp.Constant(tensor.New(6, 6))
	if _, err := tp.SoftmaxRows(b, 1, [][]bool{{true}}); err == nil {
		t.Fatal("want error: short mask")
	}
	c := tp.Constant(tensor.New(4, 2))
	if _, err := tp.SoftmaxRows(c, 2, [][]bool{nil}); err == nil {
		t.Fatal("want error: mask count != block count")
	}
}

func TestGatherRowsGrad(t *testing.T) {
	rng := tensor.NewRNG(26)
	a := rng.Normal(5, 3, 0, 1)
	w := rng.Normal(4, 3, 0, 1)
	// Index 2 repeats: the scatter-add backward must accumulate both rows.
	rows := []int{0, 2, 2, 4}
	checkGrad(t, []*tensor.Matrix{a}, func(tp *Tape, ns []*Node) (*Node, error) {
		g, err := tp.GatherRows(ns[0], rows)
		if err != nil {
			return nil, err
		}
		v, err := tp.Mul(g, tp.Constant(w))
		if err != nil {
			return nil, err
		}
		return tp.Mean(v), nil
	})
}

func TestGatherRowsForwardAndBounds(t *testing.T) {
	tp := NewTape()
	a := tp.Constant(tensor.MustFromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6}))
	g, err := tp.GatherRows(a, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.MustFromSlice(2, 2, []float64{5, 6, 1, 2})
	if !g.Value.Equal(want) {
		t.Fatalf("GatherRows = %v, want %v", g.Value, want)
	}
	if _, err := tp.GatherRows(a, []int{3}); err == nil {
		t.Fatal("want out-of-range error")
	}
	if _, err := tp.GatherRows(a, []int{-1}); err == nil {
		t.Fatal("want negative-index error")
	}
}

func TestBlockSoftmaxSumsToOne(t *testing.T) {
	rng := tensor.NewRNG(27)
	const block = 6
	tp := NewTape()
	a := tp.Constant(rng.Normal(3*block, block, 0, 2))
	padMasks := [][]bool{nil, {false, true, false, true, false, true}, nil}
	s, err := tp.SoftmaxRows(a, 3, padMasks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Value.Rows(); i++ {
		var sum float64
		for _, v := range s.Value.Row(i) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}
