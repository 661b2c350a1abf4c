package transport

import (
	"math/bits"
	"sync"
)

// Frames of at least 64 KiB are recycled: a read takes its frame from a
// pool with one class per power of two up to maxMessageSize, and
// Message.Release hands it back. A model payload is such a frame, so a
// federation round reads its tasks and updates into the buffers the round
// before released, instead of into freshly zeroed ones. A smaller frame is
// allocated and left to the garbage collector.
const (
	minFrameShift = 16 // 64 KiB, the smallest pooled frame
	maxFrameShift = 26 // maxMessageSize
)

// framePools holds released frames by class: class k holds buffers of
// capacity 1<<(minFrameShift+k).
var framePools [maxFrameShift - minFrameShift + 1]sync.Pool

// frameClass is the pool class of an n-byte frame (n <= maxMessageSize):
// the smallest class whose buffers hold n bytes, or -1 for a frame too
// small to pool.
func frameClass(n int) int {
	if n < 1<<minFrameShift {
		return -1
	}
	return bits.Len(uint(n-1)) - minFrameShift
}

// getFrame returns an n-byte buffer and, for a pooled class, the handle
// putFrame takes it back by (nil otherwise). A recycled buffer holds a
// released frame's stale bytes: the caller overwrites all n of them before
// anything reads the buffer, or puts it back unread.
func getFrame(n int) ([]byte, *[]byte) {
	k := frameClass(n)
	if k < 0 {
		return make([]byte, n), nil
	}
	if f, _ := framePools[k].Get().(*[]byte); f != nil {
		return (*f)[:n], f
	}
	b := make([]byte, 1<<(minFrameShift+k))
	return b[:n], &b
}

// putFrame returns a frame to its class; a nil handle, a frame too small
// to pool, is ignored. Under the arenapoison build tag it first fills the
// whole buffer with 0xFF, which decodes as int8 code −1 under a NaN scale,
// so a payload read after its release moves every digest downstream.
func putFrame(f *[]byte) {
	if f == nil {
		return
	}
	if framePoison {
		b := (*f)[:cap(*f)]
		for i := range b {
			b[i] = 0xFF
		}
	}
	framePools[frameClass(cap(*f))].Put(f)
}

// Release hands the frame a read message's Payload aliases back to the
// pool, for a later read to reuse. Call it once the last reader of Payload
// is done: Release sets Payload to nil, and a slice of it kept elsewhere
// may be overwritten by any later read. A second call does nothing, and
// so does a call on a message that holds no pooled frame (one built by the
// caller, or read from a frame under 64 KiB). A read message nobody
// releases is garbage-collected.
func (m *Message) Release() {
	if m.frame != nil {
		putFrame(m.frame)
		m.frame, m.Payload = nil, nil
	}
}
