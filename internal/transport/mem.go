package transport

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"
)

// This file is the in-memory transport: a MemNetwork hands out
// MessageConn pairs that behave like the framed TLS links in this package — same message encoding, same byte accounting,
// same failure surface (a corrupted frame fails the reader's Read, a
// closed peer fails reads) — but shaped by scripted per-message faults
// instead of a real network. Frames arrive as soon as they are written. A
// 200-client federation registers in microseconds instead of 200 TLS
// handshakes, and every fault is reproducible.

// LinkProfile scripts per-message faults on one direction of a simulated
// link. Each fault keys on the 0-based sequence number of messages written
// to the direction, so a profile replays identically.
type LinkProfile struct {
	// DropMsgs lists message indices that vanish in transit (the sender
	// sees success; the reader never sees the message).
	DropMsgs []int
	// CorruptMsgs lists message indices damaged in transit. The reader's
	// Read fails with ErrCorruptFrame, as a TLS record that fails its
	// integrity check fails the socket read: damage never reaches a
	// payload.
	CorruptMsgs []int
}

// ErrCorruptFrame is the Read error of a frame damaged in transit.
var ErrCorruptFrame = errors.New("transport: frame damaged in transit")

// memFrame is one in-flight message body and its pool handle.
type memFrame struct {
	body    []byte
	pooled  *[]byte
	corrupt bool
}

// memLink is the shared state of one MemConn pair: two directed queues and
// a single close signal (closing either end kills the link, as with TCP).
type memLink struct {
	done      chan struct{}
	closeOnce sync.Once
}

func (l *memLink) close() { l.closeOnce.Do(func() { close(l.done) }) }

// memDir is one direction of a link.
type memDir struct {
	ch   chan memFrame
	prof LinkProfile

	mu  sync.Mutex
	seq int
}

// send applies the fault profile and enqueues f; a dropped frame goes
// back to the pool.
func (d *memDir) send(f memFrame) {
	d.mu.Lock()
	i := d.seq
	d.seq++
	d.mu.Unlock()
	if slices.Contains(d.prof.DropMsgs, i) {
		putFrame(f.pooled)
		return
	}
	f.corrupt = slices.Contains(d.prof.CorruptMsgs, i)
	d.ch <- f
}

// MemConn is one end of an in-memory message link.
type MemConn struct {
	local, remote string
	link          *memLink
	in, out       *memDir
	counters      connCounters

	mu       sync.Mutex
	deadline time.Time
}

// connCounters tracks framed byte totals like *Conn does.
type connCounters struct {
	mu            sync.Mutex
	read, written int64
}

var _ MessageConn = (*MemConn)(nil)

// Write implements MessageConn: encode into one frame body, recycled as on
// the socket path, account bytes, enqueue through the fault profile. The
// frame is a copy, so the caller's Payload is free again when Write
// returns. A dropped message still counts as written — the sender did the
// work — but never as read.
func (c *MemConn) Write(m *Message) error {
	select {
	case <-c.link.done:
		return fmt.Errorf("transport: mem conn %s: write on closed link", c.local)
	default:
	}
	body, f, err := encodeFrame(m)
	if err != nil {
		return err
	}
	c.counters.mu.Lock()
	c.counters.written += int64(len(body)) + 8
	c.counters.mu.Unlock()
	c.out.send(memFrame{body: body, pooled: f})
	return nil
}

// memTimeoutError satisfies net.Error with Timeout() == true, so a mem
// conn's read deadline expires the way a socket's does.
type memTimeoutError struct{ op string }

func (e memTimeoutError) Error() string   { return "transport: mem " + e.op + " deadline exceeded" }
func (e memTimeoutError) Timeout() bool   { return true }
func (e memTimeoutError) Temporary() bool { return true }

// Read implements MessageConn: dequeue, decode. The message's Payload
// aliases the frame until its Release, as on the socket path. A corrupted
// frame fails here with ErrCorruptFrame, on the reader's side, exactly
// like a damaged TLS record would — with its framed bytes still counted,
// as on the socket path. A frame already queued when the link closes is
// still read, as TCP delivers data sent before a FIN; only then does Read
// report the closed link. A Read blocked on an empty queue is
// interruptible: Close and the read deadline both end it, keeping the
// MessageConn contract that blocked reads fail.
func (c *MemConn) Read() (*Message, error) {
	c.mu.Lock()
	deadline := c.deadline
	c.mu.Unlock()
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		timeout = time.After(time.Until(deadline))
	}
	var f memFrame
	select {
	case f = <-c.in.ch:
	case <-c.link.done:
		// select picks at random among ready cases, so look at the queue
		// once more before reporting the close.
		select {
		case f = <-c.in.ch:
		default:
			return nil, c.closedErr()
		}
	case <-timeout:
		return nil, memTimeoutError{op: "read"}
	}
	c.counters.mu.Lock()
	c.counters.read += int64(len(f.body)) + 8
	c.counters.mu.Unlock()
	if f.corrupt {
		putFrame(f.pooled)
		return nil, fmt.Errorf("%w: mem conn %s", ErrCorruptFrame, c.local)
	}
	return decodeFrame(f.body, f.pooled)
}

func (c *MemConn) closedErr() error {
	return fmt.Errorf("transport: mem conn %s: link closed", c.local)
}

// Close implements MessageConn; both ends of the link die.
func (c *MemConn) Close() error {
	c.link.close()
	return nil
}

// BytesRead implements MessageConn.
func (c *MemConn) BytesRead() int64 {
	c.counters.mu.Lock()
	defer c.counters.mu.Unlock()
	return c.counters.read
}

// BytesWritten implements MessageConn.
func (c *MemConn) BytesWritten() int64 {
	c.counters.mu.Lock()
	defer c.counters.mu.Unlock()
	return c.counters.written
}

// SetDeadline implements MessageConn (reads only: mem writes never block
// beyond queue capacity).
func (c *MemConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return nil
}

// memAddr names a mem endpoint.
type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// RemoteAddr implements MessageConn.
func (c *MemConn) RemoteAddr() net.Addr { return memAddr(c.remote) }

// MemNetwork is an in-process rendezvous between one listening server and
// any number of dialing clients. It implements MessageListener directly:
// pass it as ServerConfig.Listener and give each client a Dial closure.
type MemNetwork struct {
	accept    chan *MemConn
	done      chan struct{}
	closeOnce sync.Once
}

// NewMemNetwork creates an in-memory network with room for a backlog of
// pending connections.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{
		accept: make(chan *MemConn, 1024),
		done:   make(chan struct{}),
	}
}

var _ MessageListener = (*MemNetwork)(nil)

// Dial connects a named client to the network's listener. up shapes the
// client→server direction, down the server→client direction. The returned
// conn is the client end; the server end is delivered to AcceptConn.
func (n *MemNetwork) Dial(name string, up, down LinkProfile) (MessageConn, error) {
	link := &memLink{done: make(chan struct{})}
	upDir := &memDir{ch: make(chan memFrame, 1024), prof: up}
	downDir := &memDir{ch: make(chan memFrame, 1024), prof: down}
	client := &MemConn{local: name, remote: "server", link: link, in: downDir, out: upDir}
	server := &MemConn{local: "server", remote: name, link: link, in: upDir, out: downDir}
	// Check done first: the buffered accept channel would otherwise win
	// the select against an already-closed network.
	select {
	case <-n.done:
		return nil, errors.New("transport: mem network closed")
	default:
	}
	select {
	case n.accept <- server:
	case <-n.done:
		return nil, errors.New("transport: mem network closed")
	}
	// A Close that raced the enqueue may have drained the backlog before
	// this conn reached it; kill the link so neither end waits on it.
	select {
	case <-n.done:
		link.close()
		return nil, errors.New("transport: mem network closed")
	default:
		return client, nil
	}
}

// AcceptConn implements MessageListener.
func (n *MemNetwork) AcceptConn() (MessageConn, error) {
	select {
	case c := <-n.accept:
		select {
		case <-n.done: // the conn lost a race with Close; so does the accept
			c.link.close()
			return nil, errors.New("transport: mem network closed")
		default:
			return c, nil
		}
	case <-n.done:
		return nil, errors.New("transport: mem network closed")
	}
}

// Close implements MessageListener. Like closing a TCP listener, which
// resets the connections still pending in its backlog, it closes every
// dialed conn nobody accepted, so a dialer waiting on one sees the link
// die instead of blocking forever.
func (n *MemNetwork) Close() error {
	n.closeOnce.Do(func() { close(n.done) })
	for {
		select {
		case c := <-n.accept:
			c.link.close()
		default:
			return nil
		}
	}
}

// Addr implements MessageListener.
func (n *MemNetwork) Addr() net.Addr { return memAddr("mem") }
