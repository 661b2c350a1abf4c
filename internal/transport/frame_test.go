package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
)

// frameLinks are the two MessageConn kinds whose reads recycle frames. Each
// returns a send function: m written on one end, read back on the other.
var frameLinks = map[string]func(t *testing.T) func(m *Message) (*Message, error){
	"conn": func(t *testing.T) func(m *Message) (*Message, error) {
		a, b := pipeConns()
		t.Cleanup(func() { a.Close(); b.Close() })
		return func(m *Message) (*Message, error) {
			werr := make(chan error, 1)
			go func() { werr <- a.Write(m) }() // a pipe write waits for the read
			got, err := b.Read()
			if e := <-werr; e != nil {
				t.Fatal(e)
			}
			return got, err
		}
	},
	"mem": func(t *testing.T) func(m *Message) (*Message, error) {
		client, server := memPair(t, LinkProfile{}, LinkProfile{})
		return func(m *Message) (*Message, error) {
			if err := client.Write(m); err != nil {
				t.Fatal(err)
			}
			return server.Read()
		}
	},
}

// filled returns n bytes of v.
func filled(n int, v byte) []byte { return bytes.Repeat([]byte{v}, n) }

// TestFrameOwnership pins Release's contract on both links: a payload
// nobody released never changes, a released frame serves a later read of
// its size class, a second Release does nothing, and a frame under 64 KiB
// is never pooled.
func TestFrameOwnership(t *testing.T) {
	for name, newLink := range frameLinks {
		t.Run(name, func(t *testing.T) {
			send := newLink(t)
			read := func(n int, v byte) *Message {
				t.Helper()
				m, err := send(&Message{Type: MsgUpdate, Sender: "c1", Payload: filled(n, v)})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(m.Payload, filled(n, v)) {
					t.Fatalf("read a %d-byte payload of %#x wrong", n, v)
				}
				return m
			}

			// Kept: later reads, released or not, never write into it.
			kept := read(100<<10, 1)
			if kept.frame == nil {
				t.Fatal("a 100 KiB frame was not pooled")
			}
			other := read(100<<10, 2)
			if other.frame == kept.frame {
				t.Fatal("two unreleased messages share a frame")
			}
			other.Release()
			for i := 3; i < 8; i++ {
				read(120<<10, byte(i)).Release()
			}
			if !bytes.Equal(kept.Payload, filled(100<<10, 1)) {
				t.Fatal("an unreleased payload changed under later reads")
			}

			// Released: a read of the same class takes the frame back. The
			// race detector's pool drops a quarter of what is put, so a few
			// rounds are allowed.
			m := kept
			for i := 0; ; i++ {
				f := m.frame
				m.Release()
				if m.Payload != nil || m.frame != nil {
					t.Fatal("Release left the payload in place")
				}
				if m = read(127<<10, 9); m.frame == f {
					break
				}
				if i == 16 {
					t.Fatal("a released frame never served a later read of its class")
				}
			}

			// Twice released: the pool holds the frame once, so two takes
			// from its class are two buffers.
			f := m.frame
			m.Release()
			m.Release()
			n := cap(*f)
			_, a := getFrame(n)
			_, b := getFrame(n)
			if a == b {
				t.Fatal("a second Release pooled the frame again")
			}
			putFrame(a)
			putFrame(b)

			// Small: a frame under 64 KiB is its own allocation.
			env, err := envelopeSize(&Message{Type: MsgUpdate, Sender: "c1"})
			if err != nil {
				t.Fatal(err)
			}
			if small := read(64<<10-env-1, 4); small.frame != nil {
				t.Fatalf("a %d-byte frame was pooled", 64<<10-1)
			}
			if exact := read(64<<10-env, 5); exact.frame == nil || cap(*exact.frame) != 64<<10 {
				t.Fatal("a 64 KiB frame was not pooled in the 64 KiB class")
			}
		})
	}
}

// TestFailedReadHandsOutNoStaleBytes: a frame cut short, one damaged in
// transit and one whose envelope does not parse each fail their Read with
// no message, and the frame they were read into goes back unread, so the
// next read of the class returns exactly its own bytes.
func TestFailedReadHandsOutNoStaleBytes(t *testing.T) {
	stale := func() {
		_, f := getFrame(100 << 10)
		copy((*f)[:cap(*f)], filled(cap(*f), 0xEE))
		putFrame(f)
	}
	check := func(t *testing.T, send func(*Message) (*Message, error)) {
		t.Helper()
		m, err := send(&Message{Type: MsgTask, Sender: "server", Payload: filled(90<<10, 3)})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Payload, filled(90<<10, 3)) {
			t.Fatal("a read after a failed one returned stale bytes")
		}
	}

	t.Run("conn short", func(t *testing.T) {
		stale()
		a, b := net.Pipe()
		go func() {
			var hdr [8]byte
			binary.LittleEndian.PutUint64(hdr[:], 100<<10)
			_, _ = a.Write(hdr[:])
			_, _ = a.Write(filled(50<<10, 1))
			a.Close()
		}()
		if m, err := NewConn(b).Read(); err == nil || m != nil {
			t.Fatalf("a frame cut short read as %v, %v", m, err)
		}
		b.Close()
		check(t, frameLinks["conn"](t))
	})
	t.Run("conn bad envelope", func(t *testing.T) {
		stale()
		body := filled(100<<10, 0xEE) // no magic
		if m, _, err := ReadMessage(bytes.NewReader(frame(body))); err == nil || m != nil {
			t.Fatalf("a frame with a bad envelope read as %v, %v", m, err)
		}
		check(t, frameLinks["conn"](t))
	})
	t.Run("mem corrupt", func(t *testing.T) {
		stale()
		client, server := memPair(t, LinkProfile{CorruptMsgs: []int{0}}, LinkProfile{})
		if err := client.Write(&Message{Type: MsgTask, Sender: "server", Payload: filled(100<<10, 1)}); err != nil {
			t.Fatal(err)
		}
		if m, err := server.Read(); err == nil || m != nil {
			t.Fatalf("a damaged frame read as %v, %v", m, err)
		}
		check(t, func(m *Message) (*Message, error) {
			if err := client.Write(m); err != nil {
				t.Fatal(err)
			}
			return server.Read()
		})
	})
}

// TestReleasePoisonsFrame: under the arenapoison tag a released frame is
// all 0xFF, which decodes as int8 code −1 under a NaN scale, so a payload
// read after its release shows in every digest downstream.
func TestReleasePoisonsFrame(t *testing.T) {
	if !framePoison {
		t.Skip("frames are poisoned only under -tags arenapoison")
	}
	for name, newLink := range frameLinks {
		t.Run(name, func(t *testing.T) {
			m, err := newLink(t)(&Message{Type: MsgUpdate, Sender: "c1", Payload: filled(100<<10, 1)})
			if err != nil {
				t.Fatal(err)
			}
			alias := m.Payload
			m.Release()
			if !bytes.Equal(alias, filled(len(alias), 0xFF)) {
				t.Fatal("a released frame was not poisoned")
			}
		})
	}
}
