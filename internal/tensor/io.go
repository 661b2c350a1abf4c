package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// binary wire format: int64 rows, int64 cols, then rows*cols float64 bits,
// all little-endian. Used for model checkpoints and FL parameter transfer.

// WriteTo serializes m to w in the package's binary format.
func (m *Matrix) WriteTo(w io.Writer) (int64, error) {
	var n int64
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(m.rows))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(m.cols))
	k, err := w.Write(hdr)
	n += int64(k)
	if err != nil {
		return n, fmt.Errorf("tensor: write header: %w", err)
	}
	buf := make([]byte, 8*len(m.data))
	for i, v := range m.data {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	k, err = w.Write(buf)
	n += int64(k)
	if err != nil {
		return n, fmt.Errorf("tensor: write data: %w", err)
	}
	return n, nil
}

// maxReadElems caps a deserialized matrix at 2^27 elements (1 GiB of
// float64) — far above any model here, far below an OOM. Each dimension is
// capped before the product is taken in int64, so a corrupt header cannot
// wrap the check on any GOARCH (a fuzzed wire payload once slipped a
// makeslice panic through the old int-arithmetic bound).
const maxReadElems = 1 << 27

// ReadFrom deserializes a matrix from r, replacing m's contents. Data is
// read and decoded in bounded chunks, so a tiny corrupt blob declaring a
// huge shape fails with a read error after a small allocation instead of
// demanding the full declared size up front.
func (m *Matrix) ReadFrom(r io.Reader) (int64, error) {
	var n int64
	hdr := make([]byte, 16)
	k, err := io.ReadFull(r, hdr)
	n += int64(k)
	if err != nil {
		return n, fmt.Errorf("tensor: read header: %w", err)
	}
	rows := int64(binary.LittleEndian.Uint64(hdr[0:8]))
	cols := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	if rows < 0 || cols < 0 || rows > maxReadElems || cols > maxReadElems ||
		rows*cols > maxReadElems {
		return n, fmt.Errorf("tensor: implausible dimensions %dx%d", rows, cols)
	}
	elems := int(rows * cols)
	// The scratch holds at most 8192 elements (64 KiB), and no more than the
	// matrix needs: a 1x8 bias costs 64 bytes, not a full chunk.
	chunk := min(elems, 8192)
	data := make([]float64, 0, chunk)
	buf := make([]byte, 8*chunk)
	for len(data) < elems {
		c := min(len(buf)/8, elems-len(data))
		k, err = io.ReadFull(r, buf[:c*8])
		n += int64(k)
		if err != nil {
			return n, fmt.Errorf("tensor: read data: %w", err)
		}
		for i := 0; i < c; i++ {
			data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:])))
		}
	}
	m.rows, m.cols = int(rows), int(cols)
	m.data = data[:elems:elems]
	return n, nil
}

var (
	_ io.WriterTo   = (*Matrix)(nil)
	_ io.ReaderFrom = (*Matrix)(nil)
)
