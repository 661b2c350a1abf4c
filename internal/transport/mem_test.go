package transport

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// memPair dials one link and returns (client, server) ends.
func memPair(t *testing.T, up, down LinkProfile) (MessageConn, MessageConn) {
	t.Helper()
	n := NewMemNetwork()
	t.Cleanup(func() { n.Close() })
	client, err := n.Dial("c1", up, down)
	if err != nil {
		t.Fatal(err)
	}
	server, err := n.AcceptConn()
	if err != nil {
		t.Fatal(err)
	}
	return client, server
}

func TestMemConnRoundTripAndBytes(t *testing.T) {
	client, server := memPair(t, LinkProfile{}, LinkProfile{})
	msg := &Message{Type: MsgUpdate, Sender: "c1", Round: 2, Payload: []byte("payload"), NumSamples: 7}
	if err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	got, err := server.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgUpdate || got.Sender != "c1" || got.Round != 2 ||
		string(got.Payload) != "payload" || got.NumSamples != 7 {
		t.Fatalf("message mangled in transit: %+v", got)
	}
	if client.BytesWritten() <= 0 || server.BytesRead() != client.BytesWritten() {
		t.Fatalf("byte accounting mismatch: wrote %d, read %d",
			client.BytesWritten(), server.BytesRead())
	}
}

func TestMemConnCorruptFrameFailsDecodeButCountsBytes(t *testing.T) {
	client, server := memPair(t, LinkProfile{CorruptMsgs: []int{0}}, LinkProfile{})
	if err := client.Write(&Message{Type: MsgUpdate, Sender: "c1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Read(); err == nil {
		t.Fatal("corrupted frame must fail decode on the reader")
	}
	// The bytes crossed the link even though decode failed — same contract
	// as the socket path.
	if server.BytesRead() <= 0 {
		t.Fatal("corrupt frame's bytes not accounted")
	}
}

func TestMemConnDropSchedule(t *testing.T) {
	client, server := memPair(t, LinkProfile{DropMsgs: []int{0}}, LinkProfile{})
	if err := client.Write(&Message{Type: MsgUpdate, Sender: "c1", Round: 0}); err != nil {
		t.Fatal(err) // dropped in transit: sender still sees success
	}
	if err := client.Write(&Message{Type: MsgUpdate, Sender: "c1", Round: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := server.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 1 {
		t.Fatalf("read round %d, want the surviving message 1", got.Round)
	}
}

func TestMemConnReadDeadlineInterruptsBlockedRead(t *testing.T) {
	_, server := memPair(t, LinkProfile{}, LinkProfile{})
	if err := server.SetDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := server.Read() // nothing was written: the queue stays empty
	if err == nil {
		t.Fatal("want deadline error")
	}
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("want net.Error timeout, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline did not interrupt a read blocked on an empty queue")
	}
}

func TestMemConnCloseInterruptsBlockedRead(t *testing.T) {
	client, server := memPair(t, LinkProfile{}, LinkProfile{})
	readErr := make(chan error, 1)
	go func() {
		_, err := server.Read() // nothing was written: the queue stays empty
		readErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the read block
	_ = client.Close()
	select {
	case err := <-readErr:
		if err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("want link-closed error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not interrupt a read blocked on an empty queue")
	}
}

func TestMemListenerClose(t *testing.T) {
	n := NewMemNetwork()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Dial("c1", LinkProfile{}, LinkProfile{}); err == nil {
		t.Fatal("dial on a closed network must fail")
	}
}

// TestMemNetworkCloseResetsBacklog: a dial nobody accepted before the
// network closed must not leave its dialer blocked. Close kills every link
// still in the backlog, as closing a TCP listener resets pending
// connections; a dial racing the Close either fails or gets such a link.
func TestMemNetworkCloseResetsBacklog(t *testing.T) {
	n := NewMemNetwork()
	conns := make(chan MessageConn, 9)
	first, err := n.Dial("c0", LinkProfile{}, LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	conns <- first
	var wg sync.WaitGroup
	for i := 1; i < cap(conns); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c, err := n.Dial("c", LinkProfile{}, LinkProfile{}); err == nil {
				conns <- c
			}
		}()
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(conns)
	for c := range conns {
		readErr := make(chan error, 1)
		go func() {
			_, err := c.Read()
			readErr <- err
		}()
		select {
		case err := <-readErr:
			if err == nil || !strings.Contains(err.Error(), "closed") {
				t.Fatalf("want link-closed error, got %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("read on a dial left in a closed network's backlog blocked")
		}
	}
	if _, err := n.AcceptConn(); err == nil {
		t.Fatal("accept on a closed network must fail")
	}
}

// TestMemConnReadsFrameWrittenBeforeClose: a frame queued before the link
// closed is delivered before the close is reported, every time, as TCP
// delivers data sent before a FIN.
func TestMemConnReadsFrameWrittenBeforeClose(t *testing.T) {
	for i := 0; i < 200; i++ {
		client, server := memPair(t, LinkProfile{}, LinkProfile{})
		if err := client.Write(&Message{Type: MsgUpdate, Sender: "c1", Round: i}); err != nil {
			t.Fatal(err)
		}
		_ = client.Close()
		got, err := server.Read()
		if err != nil {
			t.Fatalf("iteration %d: frame written before Close was lost: %v", i, err)
		}
		if got.Round != i {
			t.Fatalf("iteration %d: read round %d", i, got.Round)
		}
		if _, err := server.Read(); err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("iteration %d: want link-closed error after the queued frame, got %v", i, err)
		}
	}
}
