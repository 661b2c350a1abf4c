package tensor

import (
	"errors"
	"testing"
)

// blockRef computes a block op by slicing blocks out and running the dense
// kernels, the reference the fused kernels must match.
func blockRef(t *testing.T, a, b *Matrix, block int, dense func(x, y *Matrix) (*Matrix, error)) *Matrix {
	t.Helper()
	nb := a.Rows() / block
	parts := make([]*Matrix, nb)
	for g := 0; g < nb; g++ {
		ag, err := a.SliceRows(g*block, (g+1)*block)
		if err != nil {
			t.Fatal(err)
		}
		bg, err := b.SliceRows(g*block, (g+1)*block)
		if err != nil {
			t.Fatal(err)
		}
		parts[g], err = dense(ag, bg)
		if err != nil {
			t.Fatal(err)
		}
	}
	out, err := Concat(parts...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBlockMatMulMatchesPerBlockDense(t *testing.T) {
	rng := NewRNG(7)
	const block, nb, n = 5, 3, 4
	a := rng.Normal(nb*block, block, 0, 1)
	b := rng.Normal(nb*block, n, 0, 1)
	got, err := BlockMatMul(a, b, block)
	if err != nil {
		t.Fatal(err)
	}
	want := blockRef(t, a, b, block, MatMul)
	if !got.AllClose(want, 1e-12, 1e-12) {
		t.Fatalf("BlockMatMul mismatch:\n%v\nvs\n%v", got, want)
	}
}

func TestBlockMatMulTransBMatchesPerBlockDense(t *testing.T) {
	rng := NewRNG(8)
	const block, nb, k = 4, 3, 6
	a := rng.Normal(nb*block, k, 0, 1)
	b := rng.Normal(nb*block, k, 0, 1)
	got, err := BlockMatMulTransB(a, b, block)
	if err != nil {
		t.Fatal(err)
	}
	want := blockRef(t, a, b, block, MatMulTransB)
	if !got.AllClose(want, 1e-12, 1e-12) {
		t.Fatalf("BlockMatMulTransB mismatch:\n%v\nvs\n%v", got, want)
	}
}

func TestBlockMatMulTransAMatchesPerBlockDense(t *testing.T) {
	rng := NewRNG(9)
	const block, nb, m, n = 4, 3, 5, 6
	a := rng.Normal(nb*block, m, 0, 1)
	b := rng.Normal(nb*block, n, 0, 1)
	got, err := BlockMatMulTransA(a, b, block)
	if err != nil {
		t.Fatal(err)
	}
	want := blockRef(t, a, b, block, MatMulTransA)
	if !got.AllClose(want, 1e-12, 1e-12) {
		t.Fatalf("BlockMatMulTransA mismatch:\n%v\nvs\n%v", got, want)
	}
}

func TestBlockMatMulSingleBlockEqualsDense(t *testing.T) {
	rng := NewRNG(10)
	a := rng.Normal(6, 6, 0, 1)
	b := rng.Normal(6, 3, 0, 1)
	got, err := BlockMatMul(a, b, 6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// The block and dense kernels share one row kernel, so single-block
	// equality is bit-exact.
	if !got.Equal(want) {
		t.Fatal("single-block BlockMatMul differs from dense MatMul")
	}
}

func TestBlockOpsLargeParallelPath(t *testing.T) {
	// Output exceeds matmulParallelThreshold to exercise the goroutine fan-out.
	rng := NewRNG(11)
	const block, nb, k = 32, 4, 24
	a := rng.Normal(nb*block, k, 0, 1)
	b := rng.Normal(nb*block, k, 0, 1)
	got, err := BlockMatMulTransB(a, b, block)
	if err != nil {
		t.Fatal(err)
	}
	want := blockRef(t, a, b, block, MatMulTransB)
	if !got.AllClose(want, 1e-12, 1e-12) {
		t.Fatal("parallel BlockMatMulTransB mismatch")
	}
	got2, err := BlockMatMul(got, a, block)
	if err != nil {
		t.Fatal(err)
	}
	want2 := blockRef(t, want, a, block, MatMul)
	if !got2.AllClose(want2, 1e-12, 1e-12) {
		t.Fatal("parallel BlockMatMul mismatch")
	}
	got3, err := BlockMatMulTransA(a, b, block)
	if err != nil {
		t.Fatal(err)
	}
	want3 := blockRef(t, a, b, block, MatMulTransA)
	if !got3.AllClose(want3, 1e-12, 1e-12) {
		t.Fatal("parallel BlockMatMulTransA mismatch")
	}
}

func TestBlockOpsShapeErrors(t *testing.T) {
	a := New(6, 3)
	b := New(6, 3)
	cases := []error{}
	if _, err := BlockMatMul(a, b, 4); err != nil { // rows not divisible
		cases = append(cases, err)
	}
	if _, err := BlockMatMul(a, b, 2); err != nil { // cols != block
		cases = append(cases, err)
	}
	if _, err := BlockMatMulTransB(a, New(4, 3), 3); err != nil { // row mismatch
		cases = append(cases, err)
	}
	if _, err := BlockMatMulTransB(a, New(6, 2), 3); err != nil { // col mismatch
		cases = append(cases, err)
	}
	if _, err := BlockMatMulTransA(a, New(4, 2), 3); err != nil { // row mismatch
		cases = append(cases, err)
	}
	if _, err := BlockMatMul(a, b, 0); err != nil { // non-positive block
		cases = append(cases, err)
	}
	if len(cases) != 6 {
		t.Fatalf("expected 6 shape errors, got %d", len(cases))
	}
	for _, err := range cases {
		if !errors.Is(err, ErrShape) {
			t.Fatalf("error %v does not wrap ErrShape", err)
		}
	}
}
