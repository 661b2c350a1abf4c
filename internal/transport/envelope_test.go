package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// encodeMessage is encodeFrame's body alone.
func encodeMessage(m *Message) ([]byte, error) {
	body, _, err := encodeFrame(m)
	return body, err
}

// goldenMessages is one message of every kind, each with the fields that
// kind carries on the wire.
func goldenMessages() []*Message {
	return []*Message{
		{Type: MsgRegister, Sender: "c1", Token: "tok", Meta: map[string]string{MetaCodec: "f32", MetaSession: "s-1"}},
		{Type: MsgRegisterAck, Sender: "server", Meta: map[string]string{"accepted": "true", MetaCodec: "f32"}},
		{Type: MsgTask, Sender: "server", Round: 3, Payload: []byte("CFLW1\n...."), Meta: map[string]string{"round": "3"}},
		{Type: MsgUpdate, Sender: "c1", Round: 3, Payload: []byte{0xAB, 0xCD}, NumSamples: 10, Meta: map[string]string{"train_loss": "0.25"}},
		{Type: MsgFinish, Sender: "server", Payload: []byte{1}},
		{Type: MsgError, Sender: "c1", Round: -1, Meta: map[string]string{"error": "boom"}},
		{Type: MsgPing, Sender: "server", Round: 7},
		{Type: MsgPong, Sender: "c1", Round: 7},
	}
}

// goldenFrames are the framed bytes of goldenMessages, in order. A change
// to any of them is a change to the wire format.
var goldenFrames = []string{
	"480000000000000043464d310102000000633103000000746f6b000000000000000000000000000000000200000005000000636f646563030000006633320700000073657373696f6e03000000732d31",
	"4b0000000000000043464d310206000000736572766572000000000000000000000000000000000000000002000000080000006163636570746564040000007472756505000000636f64656303000000663332",
	"3f0000000000000043464d31030600000073657276657200000000030000000000000000000000000000000100000005000000726f756e64010000003343464c57310a2e2e2e2e",
	"3b0000000000000043464d31040200000063310000000003000000000000000a00000000000000010000000a000000747261696e5f6c6f737304000000302e3235abcd",
	"280000000000000043464d31050600000073657276657200000000000000000000000000000000000000000000000001",
	"340000000000000043464d310602000000633100000000ffffffffffffffff000000000000000001000000050000006572726f7204000000626f6f6d",
	"270000000000000043464d310706000000736572766572000000000700000000000000000000000000000000000000",
	"230000000000000043464d3108020000006331000000000700000000000000000000000000000000000000",
}

func TestEnvelopeGoldenFrames(t *testing.T) {
	msgs := goldenMessages()
	if len(goldenFrames) != len(msgs) {
		t.Fatalf("%d golden frames for %d message kinds", len(goldenFrames), len(msgs))
	}
	for i, m := range msgs {
		want, err := hex.DecodeString(goldenFrames[i])
		if err != nil {
			t.Fatal(err)
		}
		// Conn.Write's two writes must put exactly the golden frame on
		// the wire.
		a, b := net.Pipe()
		go func() {
			_ = NewConn(a).Write(m)
			a.Close()
		}()
		var got bytes.Buffer
		_, _ = got.ReadFrom(b)
		b.Close()
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s frame\n got %x\nwant %x", m.Type, got.Bytes(), want)
		}
		back, n, err := ReadMessage(bytes.NewReader(want))
		if err != nil || n != int64(len(want)) {
			t.Fatalf("%s golden frame: read %d bytes, err %v", m.Type, n, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Errorf("%s golden frame parses to %+v, want %+v", m.Type, back, m)
		}
	}
}

// unsortedMetaBody is a valid envelope but for its meta keys, which are
// out of order: "b" before "a".
func unsortedMetaBody() []byte {
	body, err := encodeMessage(&Message{Type: MsgError, Sender: "c1", Meta: map[string]string{"a": "1", "b": "2"}})
	if err != nil {
		panic(err)
	}
	i := bytes.Index(body, []byte("a\x01\x00\x00\x001"))
	j := bytes.Index(body, []byte("b\x01\x00\x00\x002"))
	body[i], body[j] = 'b', 'a'
	body[i+5], body[j+5] = '2', '1'
	return body
}

func TestEnvelopeRejectsNonCanonicalAndCappedFields(t *testing.T) {
	if _, err := decodeMessage(unsortedMetaBody()); err == nil || !strings.Contains(err.Error(), "not after") {
		t.Errorf("meta keys out of order: got %v", err)
	}
	dup, _ := encodeMessage(&Message{Type: MsgError, Sender: "c1", Meta: map[string]string{"a": "1", "b": "2"}})
	dup[bytes.Index(dup, []byte("b\x01\x00\x00\x002"))] = 'a'
	if _, err := decodeMessage(dup); err == nil || !strings.Contains(err.Error(), "not after") {
		t.Errorf("duplicate meta key: got %v", err)
	}
	for name, m := range map[string]*Message{
		"type 0":         {Type: MsgType(0)},
		"type past pong": {Type: MsgPong + 1},
		"long sender":    {Type: MsgError, Sender: strings.Repeat("x", maxFieldSize+1)},
		"long meta":      {Type: MsgError, Meta: map[string]string{"error": strings.Repeat("x", maxFieldSize+1)}},
	} {
		if _, err := encodeMessage(m); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
	ok, _ := encodeMessage(&Message{Type: MsgPong})
	for name, body := range map[string][]byte{
		"bad magic":    append([]byte("XFM1"), ok[4:]...),
		"unknown type": append(append([]byte(envelopeMagic), 0), ok[5:]...),
		"truncated":    ok[:len(ok)-1],
	} {
		if _, err := decodeMessage(body); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// discardConn is a net.Conn whose writes vanish and whose reads come from
// r; Conn uses nothing else of it.
type discardConn struct {
	net.Conn
	r *bytes.Reader
}

func (d discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (d discardConn) Read(p []byte) (int, error)  { return d.r.Read(p) }

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// taskPayloadSize is the size of one int8 task of the fan-in benchmark's
// 417k-parameter LSTM.
const taskPayloadSize = 422 << 10

// TestWriteAllocatesNoPayloadBuffer: Conn.Write sends a task's payload from
// the caller's slice, so writing it allocates only the envelope.
func TestWriteAllocatesNoPayloadBuffer(t *testing.T) {
	c := NewConn(discardConn{})
	m := &Message{Type: MsgTask, Sender: "server", Round: 1, Payload: make([]byte, taskPayloadSize),
		Meta: map[string]string{"round": "1"}}
	if err := c.Write(m); err != nil { // warm any lazily allocated state
		t.Fatal(err)
	}
	before := totalAlloc()
	for i := 0; i < 4; i++ {
		if err := c.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	if grew := totalAlloc() - before; grew >= 4<<10 {
		t.Errorf("4 writes of a %d-byte payload allocated %d bytes, want under 4 KiB", taskPayloadSize, grew)
	}
}

// TestReadAllocatesOneFrame: Conn.Read reads a frame into one buffer and
// the message's payload aliases it. The first read of a size class
// allocates at most one buffer of the class; a read after the last frame's
// Release takes that frame back and allocates only the envelope.
func TestReadAllocatesOneFrame(t *testing.T) {
	body, err := encodeMessage(&Message{Type: MsgTask, Sender: "server", Round: 1,
		Payload: bytes.Repeat([]byte{7}, taskPayloadSize), Meta: map[string]string{"round": "1"}})
	if err != nil {
		t.Fatal(err)
	}
	const reads = 18
	wire := frame(body)
	c := NewConn(discardConn{r: bytes.NewReader(bytes.Repeat(wire, reads))})
	read := func() (*Message, uint64) {
		t.Helper()
		before := totalAlloc()
		m, err := c.Read()
		grew := totalAlloc() - before
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Payload) != taskPayloadSize || m.Payload[0] != 7 || m.Meta["round"] != "1" {
			t.Fatalf("read %d-byte payload, meta %v", len(m.Payload), m.Meta)
		}
		return m, grew
	}
	m, grew := read()
	class := uint64(1) << (minFrameShift + frameClass(len(body)))
	// 8 KiB over the class: the envelope, and the pool's per-P state when
	// this is the class's first use.
	if bound := class + 8<<10; grew > bound {
		t.Errorf("reading a %d-byte frame allocated %d bytes, want at most %d", len(wire), grew, bound)
	}
	// The race detector's pool drops a quarter of what is put, so a few
	// reads are allowed to miss.
	for i := 1; ; i++ {
		m.Release()
		if m, grew = read(); grew < 4<<10 {
			break
		}
		if i == reads-1 {
			t.Fatalf("every read after a Release allocated; the last %d bytes", grew)
		}
	}
}

// TestMemConnCorruptPayloadFailsRead: a damaged frame fails the reader's
// Read even when the damage would land inside a payload, which an mTLS
// link never delivers (the record fails its AEAD check), and its bytes
// are still counted.
func TestMemConnCorruptPayloadFailsRead(t *testing.T) {
	client, server := memPair(t, LinkProfile{CorruptMsgs: []int{0}}, LinkProfile{})
	payload := bytes.Repeat([]byte{0x5A}, 4<<10)
	if err := client.Write(&Message{Type: MsgUpdate, Sender: "c1", Payload: payload}); err != nil {
		t.Fatal(err)
	}
	m, err := server.Read()
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("corrupt frame read as %v (payload changed: %v), want ErrCorruptFrame",
			err, m != nil && !bytes.Equal(m.Payload, payload))
	}
	if server.BytesRead() != client.BytesWritten() {
		t.Errorf("corrupt frame counted %d bytes read, %d written", server.BytesRead(), client.BytesWritten())
	}
}
