// Package transport implements the FL wire protocol: length-prefixed,
// gob-encoded messages exchanged over mutual-TLS connections established
// from provision startup kits. It corresponds to NVFlare's gRPC channel,
// reduced to the message kinds the paper's pipeline needs (Fig. 1: client
// registration, task dispatch, parameter upload, round completion).
package transport

import (
	"crypto/tls"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"
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
	Type    MsgType
	Sender  string
	Token   string // admission token; set on MsgRegister
	Round   int
	Payload []byte            // serialized model weights (fl codec format)
	Meta    map[string]string // task parameters, metrics, error text
	// NumSamples weights the sender's contribution during aggregation.
	NumSamples int
}

// maxMessageSize bounds a single message (64 MiB) to fail fast on
// corruption rather than allocating unbounded buffers.
const maxMessageSize = 64 << 20

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

// Conn frames messages over a net.Conn. Safe for one reader and one writer
// goroutine concurrently (reads and writes are independently serialized by
// the caller's usage pattern; this type adds no locking).
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

// encodeMessage renders m as one frame body (gob, no length header).
func encodeMessage(m *Message) ([]byte, error) {
	enc := gobBuffer{}
	if err := gob.NewEncoder(&enc).Encode(m); err != nil {
		return nil, fmt.Errorf("transport: encode %s: %w", m.Type, err)
	}
	if len(enc.b) > maxMessageSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrMessageTooLarge, len(enc.b))
	}
	return enc.b, nil
}

// decodeMessage parses one frame body produced by encodeMessage.
func decodeMessage(body []byte) (*Message, error) {
	var m Message
	if err := gob.NewDecoder(&gobReader{b: body}).Decode(&m); err != nil {
		return nil, fmt.Errorf("transport: decode: %w", err)
	}
	return &m, nil
}

// readFrame reads one length-prefixed frame body from r, returning the
// body and the total framed bytes consumed. Factored out of Conn.Read so
// the frame parser can be fuzzed against arbitrary byte streams.
func readFrame(r io.Reader) ([]byte, int64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("transport: read header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	if n > maxMessageSize {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrMessageTooLarge, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, fmt.Errorf("transport: read body: %w", err)
	}
	return body, int64(len(hdr)) + int64(n), nil
}

// ReadMessage parses one framed message from r (frame header, size cap,
// gob body). Conn.Read goes through it; fuzz targets drive it directly.
// When a complete frame is consumed but its body fails to decode, the
// framed byte count is still returned alongside the error — those bytes
// crossed the wire and must stay in the accounting.
func ReadMessage(r io.Reader) (*Message, int64, error) {
	body, n, err := readFrame(r)
	if err != nil {
		return nil, 0, err
	}
	m, err := decodeMessage(body)
	if err != nil {
		return nil, n, err
	}
	return m, n, nil
}

// Write sends one message: 8-byte little-endian length then gob body.
func (c *Conn) Write(m *Message) error {
	body, err := encodeMessage(m)
	if err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(body)))
	if _, err := c.nc.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: write header: %w", err)
	}
	if _, err := c.nc.Write(body); err != nil {
		return fmt.Errorf("transport: write body: %w", err)
	}
	c.bytesWritten.Add(int64(len(hdr) + len(body)))
	return nil
}

// Read receives one message.
func (c *Conn) Read() (*Message, error) {
	m, n, err := ReadMessage(c.nc)
	c.bytesRead.Add(n)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// gobBuffer is a minimal io.Writer accumulating bytes (avoids bytes.Buffer
// growth churn being visible in the API; trivially small).
type gobBuffer struct{ b []byte }

func (g *gobBuffer) Write(p []byte) (int, error) {
	g.b = append(g.b, p...)
	return len(p), nil
}

// gobReader is a minimal io.Reader over a byte slice.
type gobReader struct {
	b   []byte
	off int
}

func (g *gobReader) Read(p []byte) (int, error) {
	if g.off >= len(g.b) {
		return 0, io.EOF
	}
	n := copy(p, g.b[g.off:])
	g.off += n
	return n, nil
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
