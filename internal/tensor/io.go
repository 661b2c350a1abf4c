package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// binary format: int64 rows, int64 cols, then rows*cols float64 bits, all
// little-endian. The simulator's weight digests hash it, and fl's raw
// codec frames each parameter the same way.

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

var _ io.WriterTo = (*Matrix)(nil)
