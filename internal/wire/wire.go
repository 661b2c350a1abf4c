// Package wire reads the repo's little-endian binary formats: the weight
// codec frames, the WAL record bodies and the encoded tier partials. A
// Reader walks one buffer with a sticky error, so a decoder reads a whole
// section and checks once; a read past the end fails with ErrTruncated
// and never panics or allocates.
package wire

import (
	"encoding/binary"
	"errors"
)

// ErrTruncated is the error of every read that runs past the end.
var ErrTruncated = errors.New("wire: truncated")

// Reader reads a byte slice front to back. Once a read fails, it and every
// later read return zero values, and Err reports the first failure.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Next returns the next n bytes, aliasing the buffer, or nil once the
// reader has failed.
func (r *Reader) Next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.err = ErrTruncated
		return nil
	}
	p := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// U8 reads one byte; U16, U32 and U64 read a little-endian integer. Each
// returns 0 once the reader has failed.
func (r *Reader) U8() uint8 {
	if p := r.Next(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if p := r.Next(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if p := r.Next(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if p := r.Next(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Fail records err as the reader's failure unless one is already set, so a
// decoder's own checks (a cap, a bad tag) stop the walk like a truncation.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err is the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Off is the number of bytes read; after a failure, where the failing read
// began.
func (r *Reader) Off() int { return r.off }

// Len is the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }
