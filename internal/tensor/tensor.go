// Package tensor provides dense float64 matrices and the numerical kernels
// (BLAS-like matmul, elementwise operations, reductions) that the autodiff
// engine and neural-network layers are built on.
//
// The package is deliberately small and allocation-conscious: a Matrix is a
// flat row-major []float64 plus dimensions, all hot loops are written over
// the flat slice, and matmul parallelizes across row blocks with goroutines.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned (wrapped) by operations whose operand shapes are
// incompatible.
var ErrShape = errors.New("tensor: shape mismatch")

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty 0x0 matrix. Matrices are mutable; operations
// come in value-returning (allocating) and in-place flavours.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero-filled rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromSlice returns a rows x cols matrix that takes ownership of data.
// len(data) must equal rows*cols.
func FromSlice(rows, cols int, data []float64) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("%w: FromSlice %dx%d needs %d values, got %d",
			ErrShape, rows, cols, rows*cols, len(data))
	}
	return &Matrix{rows: rows, cols: cols, data: data}, nil
}

// MustFromSlice is FromSlice that panics on error; intended for literals in
// tests and examples.
func MustFromSlice(rows, cols int, data []float64) *Matrix {
	m, err := FromSlice(rows, cols, data)
	if err != nil {
		panic(err)
	}
	return m
}

// FromRows builds a matrix from row slices. All rows must share a length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: FromRows row %d has %d cols, want %d",
				ErrShape, i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Size returns the number of elements (rows*cols).
func (m *Matrix) Size() int { return len(m.data) }

// Data returns the underlying flat row-major slice. Mutating it mutates the
// matrix; callers that need isolation should Clone first.
func (m *Matrix) Data() []float64 { return m.data }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// SetRow copies v into row i. len(v) must equal Cols.
func (m *Matrix) SetRow(i int, v []float64) error {
	if len(v) != m.cols {
		return fmt.Errorf("%w: SetRow got %d values, want %d", ErrShape, len(v), m.cols)
	}
	copy(m.Row(i), v)
	return nil
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// CopyFrom copies src's contents into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) error {
	if m.rows != src.rows || m.cols != src.cols {
		return fmt.Errorf("%w: CopyFrom %dx%d into %dx%d",
			ErrShape, src.rows, src.cols, m.rows, m.cols)
	}
	copy(m.data, src.data)
	return nil
}

// Zero resets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Fill sets every element to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Reshape returns a view of the same data with new dimensions.
// rows*cols must equal the current size.
func (m *Matrix) Reshape(rows, cols int) (*Matrix, error) {
	if rows*cols != len(m.data) {
		return nil, fmt.Errorf("%w: Reshape %dx%d to %dx%d",
			ErrShape, m.rows, m.cols, rows, cols)
	}
	return &Matrix{rows: rows, cols: cols, data: m.data}, nil
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool {
	return m.rows == o.rows && m.cols == o.cols
}

// Equal reports exact elementwise equality.
func (m *Matrix) Equal(o *Matrix) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.data {
		if v != o.data[i] {
			return false
		}
	}
	return true
}

// AllClose reports elementwise |a-b| <= atol + rtol*|b|.
func (m *Matrix) AllClose(o *Matrix, rtol, atol float64) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-o.data[i]) > atol+rtol*math.Abs(o.data[i]) {
			return false
		}
	}
	return true
}

// String renders the matrix compactly for debugging.
func (m *Matrix) String() string {
	if m.rows*m.cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.rows, m.cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
