// Package sim is the deterministic large-scale federation simulator: a
// discrete-event virtual clock that replaces wall time throughout the fl
// stack, plus a scenario spec (N clients × data/speed/fault/codec
// profiles) that drives the unmodified fl.Controller round loop. A
// scenario client is an fl.Planner and an fl.Prober: its whole round, and
// each recovery probe, is computed at dispatch and lands as one AfterFunc
// event on the clock's heap, so tens of thousands of clients with minutes
// of simulated straggling, scripted dropouts and mixed weight codecs run
// in a fraction of a second of real time without a goroutine anywhere.
// Because every event fires in a single deterministic order, a fixed seed
// reproduces the run's History bit-for-bit at any GOMAXPROCS.
package sim

import (
	"sync"
	"time"

	"clinfl/internal/fl"
)

// Clock is the canonical time-injection interface of the federation
// stack. It is an alias of fl.Clock (defined there so fl does not import
// this package); sim provides the deterministic implementation.
type Clock = fl.Clock

// event is one AfterFunc callback scheduled in virtual time.
type event struct {
	at   time.Duration // virtual time since epoch
	seq  uint64
	fire func()
}

// eventHeap is a binary min-heap of events ordered by (time, schedule
// sequence): ties fire in the order they were scheduled, which is itself
// deterministic because every callback runs on the one Wait goroutine.
// Since sequence numbers are unique the order is total, so the pop
// sequence is fixed by the events alone. It is typed rather than a
// container/heap over time.Time, and it holds events by value: a
// 30k-client round pushes and pops 30k events, and integer compares over
// contiguous memory — no interface dispatch, no pointer chase, no
// allocation per AfterFunc — keep that off the profile.
type eventHeap []event

// before is the heap order: earlier time first, then earlier schedule.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// push adds ev, sifting it up to its place.
func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

// pop removes and returns the earliest event; the heap must be non-empty.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0], q[n] = q[n], event{} // drop the vacated slot's callback for the GC
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q[r].before(&q[m]) {
			m = r
		}
		if !q[m].before(&q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// VirtualClock is a discrete-event clock with one kind of event: an
// AfterFunc callback ordered by (virtual time, schedule sequence). The
// driver (the goroutine running the federation's round loop) blocks only
// in Wait, which advances virtual time to the next event and runs its
// callback inline, so nothing ever runs concurrently with anything else:
// event order — and therefore channel delivery order, aggregation
// membership, and every floating-point accumulation — is a pure function
// of the scenario, not of the Go scheduler or GOMAXPROCS.
//
// Rules: the driver must block only through Wait (fl's gather loops do,
// via their injected clock); AfterFunc callbacks must not block.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Duration // virtual time since epoch; Now adds the epoch
	seq uint64
	pq  eventHeap
}

// epoch is the fixed virtual origin, so simulated timestamps (and the
// History durations derived from them) are identical across runs and
// machines.
var epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// NewVirtualClock returns a virtual clock starting at a fixed epoch.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

var (
	_ Clock     = (*VirtualClock)(nil)
	_ fl.Waiter = (*VirtualClock)(nil)
)

// Now implements Clock.
func (vc *VirtualClock) Now() time.Time {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return epoch.Add(vc.now)
}

// Since implements Clock.
func (vc *VirtualClock) Since(t time.Time) time.Duration { return vc.Now().Sub(t) }

// AfterFunc implements Clock: fn runs inline in the Wait loop once
// virtual time reaches now+d, ordered against every other callback by
// (time, schedule sequence).
func (vc *VirtualClock) AfterFunc(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	vc.mu.Lock()
	vc.seq++
	vc.pq.push(event{at: vc.now + d, seq: vc.seq, fire: fn})
	vc.mu.Unlock()
}

// Wait implements fl.Waiter: evaluate poll between events, advancing
// virtual time and running one callback at a time, until poll succeeds
// (true) or virtual time reaches deadline (false; zero deadline never
// fires). An event scheduled exactly at the deadline loses the tie: the
// deadline fires first, deterministically.
func (vc *VirtualClock) Wait(poll func() bool, deadline time.Time) bool {
	dl, hasDeadline := deadline.Sub(epoch), !deadline.IsZero()
	for {
		if poll() {
			return true
		}
		vc.mu.Lock()
		if len(vc.pq) == 0 && !hasDeadline {
			vc.mu.Unlock()
			panic("sim: virtual clock deadlock: nothing to advance (no pending events, no deadline)")
		}
		if len(vc.pq) == 0 || (hasDeadline && vc.pq[0].at >= dl) {
			if dl > vc.now {
				vc.now = dl
			}
			vc.mu.Unlock()
			return false
		}
		ev := vc.pq.pop()
		if ev.at > vc.now {
			vc.now = ev.at
		}
		vc.mu.Unlock()
		ev.fire()
	}
}

// Drain advances virtual time until every pending event has fired —
// typically called after a federation returns, so stragglers still in
// flight past the final round deliver instead of leaking.
func (vc *VirtualClock) Drain() {
	vc.Wait(func() bool {
		vc.mu.Lock()
		defer vc.mu.Unlock()
		return len(vc.pq) == 0
	}, time.Time{})
}
