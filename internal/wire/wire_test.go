package wire

import (
	"errors"
	"testing"
)

func TestReaderReadsLittleEndian(t *testing.T) {
	b := []byte{1, 2, 0, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 'h', 'i'}
	r := NewReader(b)
	if v := r.U8(); v != 1 {
		t.Fatalf("U8 = %d", v)
	}
	if v := r.U16(); v != 2 {
		t.Fatalf("U16 = %d", v)
	}
	if v := r.U32(); v != 3 {
		t.Fatalf("U32 = %d", v)
	}
	if v := r.U64(); v != 4 {
		t.Fatalf("U64 = %d", v)
	}
	if r.Off() != 15 || r.Len() != 2 {
		t.Fatalf("Off %d Len %d, want 15 and 2", r.Off(), r.Len())
	}
	p := r.Next(2)
	if string(p) != "hi" || &p[0] != &b[15] || cap(p) != 2 {
		t.Fatalf("Next = %q (cap %d), want an aliasing view of \"hi\"", p, cap(p))
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("Err %v Len %d after reading everything", r.Err(), r.Len())
	}
}

// TestReaderErrorIsSticky: the first failure stops the walk where it
// happened, and every later read returns nothing.
func TestReaderErrorIsSticky(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.U16()
	if v := r.U32(); v != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("U32 past the end = %d, err %v", v, r.Err())
	}
	if r.Off() != 2 {
		t.Fatalf("Off after a failed read = %d, want 2", r.Off())
	}
	if v := r.U8(); v != 0 || r.Next(0) != nil {
		t.Fatal("a read after a failure returned data")
	}
	mine := errors.New("cap exceeded")
	r = NewReader([]byte{9})
	r.Fail(mine)
	r.Fail(errors.New("second"))
	if r.U8() != 0 || r.Err() != mine || r.Off() != 0 {
		t.Fatalf("after Fail: err %v off %d", r.Err(), r.Off())
	}
	r = NewReader([]byte{9})
	if r.Next(-1) != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("negative Next: err %v", r.Err())
	}
}
