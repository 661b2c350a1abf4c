// Package transport implements the FL wire protocol: length-prefixed
// binary messages exchanged over mutual-TLS connections established from
// provision startup kits. It corresponds to NVFlare's gRPC channel,
// reduced to the message kinds the paper's pipeline needs (Fig. 1: client
// registration, task dispatch, parameter upload, round completion).
package transport

import (
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"clinfl/internal/wire"
)

// MsgType enumerates protocol messages.
type MsgType int

// Protocol message kinds.
const (
	// MsgRegister is the client's admission request (token-authenticated).
	MsgRegister MsgType = iota + 1
	// MsgRegisterAck accepts or rejects a registration.
	MsgRegisterAck
	// MsgTask carries the global model and round instructions to a client.
	MsgTask
	// MsgUpdate carries a client's locally-trained parameters back.
	MsgUpdate
	// MsgFinish tells clients training is complete (final model attached).
	MsgFinish
	// MsgError reports a fatal protocol error.
	MsgError
	// MsgPing is the server's liveness probe of a demoted client (no
	// payload; Round carries the probing round for logging).
	MsgPing
	// MsgPong answers a MsgPing, re-admitting the client to the sample
	// pool.
	MsgPong
)

// String renders the message kind.
func (t MsgType) String() string {
	switch t {
	case MsgRegister:
		return "register"
	case MsgRegisterAck:
		return "register-ack"
	case MsgTask:
		return "task"
	case MsgUpdate:
		return "update"
	case MsgFinish:
		return "finish"
	case MsgError:
		return "error"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	default:
		return fmt.Sprintf("msgtype(%d)", int(t))
	}
}

// MetaCodec is the Meta key carrying the weight-codec name during
// registration: the client requests its uplink codec on MsgRegister and
// the server echoes the accepted codec on MsgRegisterAck (falling back to
// "raw" for unknown names). Payloads stay self-describing, so negotiation
// only fixes what each side *emits*.
const MetaCodec = "codec"

// MetaSession is the Meta key carrying a client's session token: the
// server issues it on MsgRegisterAck at first registration, and a
// reconnecting client presents it on MsgRegister to re-attach to its
// existing session (and any in-flight round task) instead of being
// rejected as a duplicate.
const MetaSession = "session"

// Message is the protocol envelope.
type Message struct {
	Type   MsgType
	Sender string
	Token  string // admission token; set on MsgRegister
	Round  int
	// Payload is the serialized model weights (fl codec format). A read
	// message's Payload aliases the frame it arrived in, which is valid
	// until Release; a written one is sent from the caller's slice, which
	// must not change during Write and is free again once Write returns.
	Payload []byte
	Meta    map[string]string // task parameters, metrics, error text
	// NumSamples weights the sender's contribution during aggregation.
	NumSamples int
	// frame is the pooled buffer a read message's Payload aliases, nil
	// when it has none or it has been released.
	frame *[]byte
}

// maxMessageSize bounds a single message (64 MiB) to fail fast on
// corruption rather than allocating unbounded buffers.
const maxMessageSize = 1 << maxFrameShift

// ErrMessageTooLarge is returned for frames exceeding maxMessageSize.
var ErrMessageTooLarge = errors.New("transport: message exceeds size limit")

// MessageConn is one framed, bidirectional message channel between a
// server and a client. The FL stack is written against this interface so
// the same Server/Client code runs over mutual-TLS sockets (*Conn) and
// over the in-memory simulated links (*MemConn) the federation simulator
// and the fltest conformance kit use.
type MessageConn interface {
	// Read receives the next message, blocking until one arrives, the
	// read deadline passes, or the connection dies.
	Read() (*Message, error)
	// Write sends one message.
	Write(m *Message) error
	// Close tears the connection down; blocked reads fail.
	Close() error
	// BytesRead / BytesWritten report total framed bytes so callers can
	// account bytes-on-wire per round.
	BytesRead() int64
	BytesWritten() int64
	// SetDeadline bounds the next read/write (zero clears it).
	SetDeadline(t time.Time) error
	// RemoteAddr exposes the peer address for logging.
	RemoteAddr() net.Addr
}

// MessageListener accepts MessageConns. TLS listeners and the in-memory
// network both implement it.
type MessageListener interface {
	// AcceptConn waits for the next inbound connection.
	AcceptConn() (MessageConn, error)
	// Close stops accepting; blocked AcceptConn calls fail.
	Close() error
	// Addr is the listener's address.
	Addr() net.Addr
}

// Conn frames messages over a net.Conn, one copy per message on each side:
// Write sends the envelope from a small buffer and the payload from the
// caller's slice, and Read reads each frame into one buffer, recycled when
// it is 64 KiB or more, that the message's Payload aliases until Release.
// Safe for one reader and one writer goroutine concurrently (reads and
// writes are independently serialized by the caller's usage pattern; this
// type adds no locking).
type Conn struct {
	nc net.Conn
	// bytesRead / bytesWritten count framed message bytes (header + body)
	// so callers can report bytes-on-wire per round; atomics because stats
	// are read while the reader/writer goroutines are live.
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
}

// NewConn wraps nc.
func NewConn(nc net.Conn) *Conn { return &Conn{nc: nc} }

// BytesRead reports total framed bytes received on this connection.
func (c *Conn) BytesRead() int64 { return c.bytesRead.Load() }

// BytesWritten reports total framed bytes sent on this connection.
func (c *Conn) BytesWritten() int64 { return c.bytesWritten.Load() }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// RemoteAddr exposes the peer address for logging.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// SetDeadline bounds the next read/write.
func (c *Conn) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// Every frame is an 8-byte little-endian body length, then the body: the
// envelope, then the payload as the rest of the frame.
//
//	magic    "CFM1"
//	type     u8
//	sender   u32 length, bytes
//	token    u32 length, bytes
//	round    u64, two's complement
//	samples  u64, two's complement
//	meta     u32 count, then per entry a u32 key length, the key, a u32
//	         value length and the value, keys strictly ascending
//	payload  every byte left in the frame
//
// The encoding is canonical: a frame that parses re-encodes to itself.
const envelopeMagic = "CFM1"

// Caps on the envelope's fields. Both ends check them, so a writer never
// sends a frame its reader would refuse.
const (
	maxFieldSize   = 1 << 16 // one sender, token, meta key or meta value
	maxMetaEntries = 1 << 10
)

// envelopeSize is the length of m's envelope, the frame body without the
// payload, once m has passed every cap a reader applies.
func envelopeSize(m *Message) (int, error) {
	if m.Type < MsgRegister || m.Type > MsgPong {
		return 0, fmt.Errorf("transport: encode: unknown message type %d", int(m.Type))
	}
	if len(m.Meta) > maxMetaEntries {
		return 0, fmt.Errorf("transport: encode %s: %d meta entries, cap %d", m.Type, len(m.Meta), maxMetaEntries)
	}
	// magic, type, two field lengths, round, samples, meta count
	n := len(envelopeMagic) + 1 + 4 + 4 + 8 + 8 + 4 + len(m.Sender) + len(m.Token)
	longest := max(len(m.Sender), len(m.Token))
	for k, v := range m.Meta {
		n += 4 + len(k) + 4 + len(v)
		longest = max(longest, len(k), len(v))
	}
	if longest > maxFieldSize {
		return 0, fmt.Errorf("transport: encode %s: %d-byte field, cap %d", m.Type, longest, maxFieldSize)
	}
	if n+len(m.Payload) > maxMessageSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrMessageTooLarge, n+len(m.Payload))
	}
	return n, nil
}

// appendEnvelope appends the envelope of m, which envelopeSize has passed.
func appendEnvelope(dst []byte, m *Message) []byte {
	dst = append(dst, envelopeMagic...)
	dst = append(dst, byte(m.Type))
	dst = appendField(dst, m.Sender)
	dst = appendField(dst, m.Token)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Round))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.NumSamples))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Meta)))
	for _, k := range slices.Sorted(maps.Keys(m.Meta)) {
		dst = appendField(appendField(dst, k), m.Meta[k])
	}
	return dst
}

func appendField(dst []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(s))), s...)
}

// field reads one length-prefixed envelope field.
func field(r *wire.Reader) string {
	n := r.U32()
	if r.Err() == nil && n > maxFieldSize {
		r.Fail(fmt.Errorf("%d-byte field, cap %d", n, maxFieldSize))
	}
	return string(r.Next(int(n)))
}

// encodeFrame renders m as one frame body (no length header): the
// envelope and a copy of the payload, in one buffer from getFrame, whose
// handle it returns too.
func encodeFrame(m *Message) ([]byte, *[]byte, error) {
	n, err := envelopeSize(m)
	if err != nil {
		return nil, nil, err
	}
	body, f := getFrame(n + len(m.Payload))
	appendEnvelope(body[:0], m) // within body's capacity: in place
	copy(body[n:], m.Payload)
	return body, f, nil
}

// decodeMessage parses one frame body. The message's Payload aliases body.
func decodeMessage(body []byte) (*Message, error) {
	r := wire.NewReader(body)
	if string(r.Next(len(envelopeMagic))) != envelopeMagic {
		return nil, errors.New("transport: decode: bad magic")
	}
	m := &Message{Type: MsgType(r.U8())}
	m.Sender, m.Token = field(r), field(r)
	m.Round, m.NumSamples = int(r.U64()), int(r.U64())
	n := r.U32()
	if r.Err() == nil && n > maxMetaEntries {
		r.Fail(fmt.Errorf("%d meta entries, cap %d", n, maxMetaEntries))
	}
	var prev string
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		k, v := field(r), field(r)
		if i > 0 && k <= prev {
			r.Fail(fmt.Errorf("meta key %q not after %q", k, prev))
		}
		if m.Meta == nil {
			m.Meta = make(map[string]string)
		}
		m.Meta[k], prev = v, k
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("transport: decode: %w", r.Err())
	}
	if m.Type < MsgRegister || m.Type > MsgPong {
		return nil, fmt.Errorf("transport: decode: unknown message type %d", int(m.Type))
	}
	if r.Len() > 0 {
		m.Payload = r.Next(r.Len())
	}
	return m, nil
}

// readFrame reads one length-prefixed frame body from r into one buffer
// from getFrame, returning the body, its pool handle and the total framed
// bytes consumed. A frame that fails to arrive in full goes back to the
// pool unread. Factored out of Conn.Read so the frame parser can be
// fuzzed against arbitrary byte streams.
func readFrame(r io.Reader) ([]byte, *[]byte, int64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, 0, fmt.Errorf("transport: read header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	if n > maxMessageSize {
		return nil, nil, 0, fmt.Errorf("%w: %d bytes", ErrMessageTooLarge, n)
	}
	body, f := getFrame(int(n))
	if _, err := io.ReadFull(r, body); err != nil {
		putFrame(f)
		return nil, nil, 0, fmt.Errorf("transport: read body: %w", err)
	}
	return body, f, int64(len(hdr)) + int64(n), nil
}

// ReadMessage parses one framed message from r (frame header, size cap,
// envelope). Conn.Read goes through it; fuzz targets drive it directly.
// When a complete frame is consumed but its envelope fails to decode, the
// framed byte count is still returned alongside the error — those bytes
// crossed the wire and must stay in the accounting.
func ReadMessage(r io.Reader) (*Message, int64, error) {
	body, f, n, err := readFrame(r)
	if err != nil {
		return nil, 0, err
	}
	m, err := decodeFrame(body, f)
	return m, n, err
}

// decodeFrame is decodeMessage of a frame from getFrame: the message holds
// the frame for Release, and a frame that fails to decode goes straight
// back to the pool.
func decodeFrame(body []byte, f *[]byte) (*Message, error) {
	m, err := decodeMessage(body)
	if err != nil {
		putFrame(f)
		return nil, err
	}
	m.frame = f
	return m, nil
}

// Write sends one message: the length header and the envelope in one
// write, then the payload straight from m.Payload, which Write does not
// copy.
func (c *Conn) Write(m *Message) error {
	n, err := envelopeSize(m)
	if err != nil {
		return err
	}
	hdr := make([]byte, 8, 8+n)
	binary.LittleEndian.PutUint64(hdr, uint64(n+len(m.Payload)))
	hdr = appendEnvelope(hdr, m)
	if _, err := c.nc.Write(hdr); err != nil {
		return fmt.Errorf("transport: write header: %w", err)
	}
	if len(m.Payload) > 0 {
		if _, err := c.nc.Write(m.Payload); err != nil {
			return fmt.Errorf("transport: write body: %w", err)
		}
	}
	c.bytesWritten.Add(int64(len(hdr) + len(m.Payload)))
	return nil
}

// Read receives one message. Its Payload aliases the one buffer the frame
// was read into, until the message's Release.
func (c *Conn) Read() (*Message, error) {
	m, n, err := ReadMessage(c.nc)
	c.bytesRead.Add(n)
	if err != nil {
		return nil, err
	}
	return m, nil
}

var _ MessageConn = (*Conn)(nil)

// connListener adapts a TLS net.Listener into a MessageListener by framing
// accepted connections with NewConn.
type connListener struct {
	ln net.Listener
}

// ListenMessages starts a TLS MessageListener on addr: the socket-backed
// counterpart of *MemNetwork. An accepted connection performs its TLS
// handshake lazily, on its first read or write, so a read deadline set
// before the first Read bounds the handshake too.
func ListenMessages(addr string, cfg *tls.Config) (MessageListener, error) {
	ln, err := tls.Listen("tcp", addr, cfg)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return connListener{ln: ln}, nil
}

// AcceptConn implements MessageListener.
func (l connListener) AcceptConn() (MessageConn, error) {
	nc, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// Close implements MessageListener.
func (l connListener) Close() error { return l.ln.Close() }

// Addr implements MessageListener.
func (l connListener) Addr() net.Addr { return l.ln.Addr() }

// Dial connects to addr with the given TLS config, retrying until the
// deadline to tolerate server startup races.
func Dial(addr string, cfg *tls.Config, timeout time.Duration) (*Conn, error) {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		d := &net.Dialer{Timeout: time.Second}
		nc, err := tls.DialWithDialer(d, "tcp", addr, cfg)
		if err == nil {
			return NewConn(nc), nil
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	return nil, fmt.Errorf("transport: dial %s: %w", addr, lastErr)
}
