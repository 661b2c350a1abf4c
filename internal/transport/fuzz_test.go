package transport

// Fuzz target for the wire-facing frame parser: ReadMessage consumes
// length-prefixed frames straight off attacker-reachable sockets and must
// never panic or allocate past the frame cap, whatever the bytes. The
// envelope is canonical, so whatever parses must re-encode to the exact
// frame it was parsed from.

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// frame length-prefixes a body the way Conn.Write does.
func frame(body []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(body)))
	return append(hdr[:], body...)
}

func FuzzReadMessage(f *testing.F) {
	// Valid frames for every message kind.
	for _, m := range goldenMessages() {
		body, err := encodeMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame(body))
	}
	// Hostile frames: oversized declared length, truncated body, length
	// header lying about a short body, garbage without the magic, meta
	// keys out of order.
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint64(huge, 1<<40)
	f.Add(huge)
	f.Add(frame(nil)[:4])
	f.Add(frame(bytes.Repeat([]byte{1}, 64))[:32])
	f.Add(frame([]byte("not an envelope at all")))
	f.Add(frame(unsortedMetaBody()))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("nil message with nil error")
		}
		if n <= 0 || n > int64(len(data)) {
			t.Fatalf("consumed %d framed bytes from a %d-byte input", n, len(data))
		}
		body, err := encodeMessage(m)
		if err != nil {
			t.Fatalf("parsed message does not re-encode: %v", err)
		}
		if got := frame(body); !bytes.Equal(got, data[:n]) {
			t.Fatalf("parse then encode gave a different frame:\n got %x\nwant %x", got, data[:n])
		}
	})
}
