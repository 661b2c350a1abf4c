package tensor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 || m.Size() != 6 {
		t.Fatalf("got %dx%d size %d", m.Rows(), m.Cols(), m.Size())
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.Row(1)[2]; got != 7.5 {
		t.Fatalf("Row view = %v, want 7.5", got)
	}
}

func TestFromSliceShapeError(t *testing.T) {
	if _, err := FromSlice(2, 2, []float64{1, 2, 3}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

// product returns the dense a×b in a fresh matrix.
func product(a, b *Matrix) (*Matrix, error) {
	out := New(a.Rows(), b.Cols())
	return out, MatMulInto(out, a, b)
}

func TestMatMulSmall(t *testing.T) {
	a := MustFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := MustFromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got, err := product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromSlice(2, 2, []float64{58, 64, 139, 154})
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulShapeError(t *testing.T) {
	a, b := New(2, 3), New(2, 3)
	if _, err := product(a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(1)
	// Big enough to trigger the parallel path.
	a := rng.Normal(128, 96, 0, 1)
	b := rng.Normal(96, 128, 0, 1)
	got, err := product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Naive serial reference.
	want := New(128, 128)
	for i := 0; i < 128; i++ {
		for j := 0; j < 128; j++ {
			var s float64
			for k := 0; k < 96; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	if !got.AllClose(want, 1e-12, 1e-12) {
		t.Fatal("parallel matmul differs from serial reference")
	}
}

func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(2)
	a := rng.Normal(7, 5, 0, 1)
	b := rng.Normal(9, 5, 0, 1)
	got := New(7, 9)
	if err := MatMulTransB(got, a, b, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	want, err := product(a, b.Transpose())
	if err != nil {
		t.Fatal(err)
	}
	if !got.AllClose(want, 1e-12, 1e-12) {
		t.Fatal("MatMulTransB differs from a×bᵀ")
	}
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(3)
	a := rng.Normal(5, 7, 0, 1)
	b := rng.Normal(5, 9, 0, 1)
	got := New(7, 9)
	if err := MatMulTransAAcc(got, a, b, 1, 1); err != nil {
		t.Fatal(err)
	}
	want, err := product(a.Transpose(), b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.AllClose(want, 1e-12, 1e-12) {
		t.Fatal("MatMulTransA differs from aᵀ×b")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := NewRNG(4)
	m := rng.Normal(6, 11, 0, 1)
	if !m.Transpose().Transpose().Equal(m) {
		t.Fatal("transpose twice should be identity")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := MustFromSlice(1, 3, []float64{1, 2, 3})
	b := MustFromSlice(1, 3, []float64{4, 5, 6})
	sum, _ := Add(a, b)
	if !sum.Equal(MustFromSlice(1, 3, []float64{5, 7, 9})) {
		t.Fatalf("Add = %v", sum)
	}
	diff, _ := Sub(a, b)
	if !diff.Equal(MustFromSlice(1, 3, []float64{-3, -3, -3})) {
		t.Fatalf("Sub = %v", diff)
	}
	prod, _ := Mul(a, b)
	if !prod.Equal(MustFromSlice(1, 3, []float64{4, 10, 18})) {
		t.Fatalf("Mul = %v", prod)
	}
	if s := Scale(2, a); !s.Equal(MustFromSlice(1, 3, []float64{2, 4, 6})) {
		t.Fatalf("Scale = %v", s)
	}
}

func TestAddRowVector(t *testing.T) {
	m := MustFromSlice(2, 2, []float64{1, 2, 3, 4})
	v := MustFromSlice(1, 2, []float64{10, 20})
	got, err := AddRowVector(m, v)
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromSlice(2, 2, []float64{11, 22, 13, 24})
	if !got.Equal(want) {
		t.Fatalf("AddRowVector = %v", got)
	}
}

func TestSumRowsAndReductions(t *testing.T) {
	m := MustFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.Sum() != 21 {
		t.Fatalf("Sum = %v", m.Sum())
	}
	if m.Mean() != 3.5 {
		t.Fatalf("Mean = %v", m.Mean())
	}
	if m.MaxAbs() != 6 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
	if math.Abs(m.Norm()-math.Sqrt(91)) > 1e-12 {
		t.Fatalf("Norm = %v", m.Norm())
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := MustFromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	s := New(2, 3)
	SoftmaxRowsInto(s, m, nil)
	for i := 0; i < 2; i++ {
		var sum float64
		for _, v := range s.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// Large inputs must not overflow (stabilized by max subtraction).
	if !AllFinite(s.Data()) {
		t.Fatal("softmax produced NaN on large inputs")
	}
	if math.Abs(s.At(1, 0)-1.0/3) > 1e-12 {
		t.Fatalf("uniform row should be 1/3, got %v", s.At(1, 0))
	}
}

func TestArgmaxRows(t *testing.T) {
	m := MustFromSlice(2, 3, []float64{1, 5, 3, 9, 2, 9})
	got := ArgmaxRows(m)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows = %v", got)
	}
}

func TestConcatAndSlices(t *testing.T) {
	a := MustFromSlice(1, 2, []float64{1, 2})
	b := MustFromSlice(2, 2, []float64{3, 4, 5, 6})
	c, err := Concat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows() != 3 || c.At(2, 1) != 6 {
		t.Fatalf("Concat = %v", c)
	}
	rows, err := c.SliceRows(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Equal(b) {
		t.Fatalf("SliceRows = %v", rows)
	}
	cols, err := c.SliceCols(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cols.Cols() != 1 || cols.At(0, 0) != 2 {
		t.Fatalf("SliceCols = %v", cols)
	}
}

func TestReshape(t *testing.T) {
	m := MustFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	r, err := m.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.At(2, 1) != 6 {
		t.Fatalf("Reshape At(2,1) = %v", r.At(2, 1))
	}
	if _, err := m.Reshape(4, 2); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

// TestSerializationRoundTrip pins WriteTo's layout: u64 rows, u64 cols,
// then the row-major float64 bits, all little-endian.
func TestSerializationRoundTrip(t *testing.T) {
	m := NewRNG(5).Normal(17, 9, 0, 3)
	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if n != int64(len(b)) || len(b) != 16+8*17*9 {
		t.Fatalf("wrote %d bytes (reported %d), want %d", len(b), n, 16+8*17*9)
	}
	rows, cols := binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[16+8*i:]))
	}
	if got := MustFromSlice(int(rows), int(cols), data); !got.Equal(m) {
		t.Fatal("round trip changed matrix")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Normal(4, 4, 0, 1)
	b := NewRNG(42).Normal(4, 4, 0, 1)
	if !a.Equal(b) {
		t.Fatal("same seed should give identical matrices")
	}
	c := NewRNG(43).Normal(4, 4, 0, 1)
	if a.Equal(c) {
		t.Fatal("different seeds should differ")
	}
}

func TestXavierRange(t *testing.T) {
	m := NewRNG(7).Xavier(64, 64)
	bound := math.Sqrt(6.0 / 128.0)
	for _, v := range m.Data() {
		if v < -bound || v >= bound {
			t.Fatalf("xavier value %v outside ±%v", v, bound)
		}
	}
}

// Property: (A+B)+C == A+(B+C) elementwise (exact for integer-valued data).
func TestAddAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		a := rng.Uniform(3, 4, -8, 8).Apply(math.Round)
		b := rng.Uniform(3, 4, -8, 8).Apply(math.Round)
		c := rng.Uniform(3, 4, -8, 8).Apply(math.Round)
		ab, _ := Add(a, b)
		left, _ := Add(ab, c)
		bc, _ := Add(b, c)
		right, _ := Add(a, bc)
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A(B+C) == AB + AC.
func TestMatMulDistributivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		a := rng.Normal(4, 5, 0, 1)
		b := rng.Normal(5, 3, 0, 1)
		c := rng.Normal(5, 3, 0, 1)
		bc, _ := Add(b, c)
		left, _ := product(a, bc)
		ab, _ := product(a, b)
		ac, _ := product(a, c)
		right, _ := Add(ab, ac)
		return left.AllClose(right, 1e-9, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is linear: (A+B)ᵀ == Aᵀ + Bᵀ.
func TestTransposeLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		a := rng.Normal(3, 6, 0, 1)
		b := rng.Normal(3, 6, 0, 1)
		ab, _ := Add(a, b)
		left := ab.Transpose()
		right, _ := Add(a.Transpose(), b.Transpose())
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsolation(t *testing.T) {
	m := MustFromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares backing data")
	}
}
