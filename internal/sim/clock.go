// Package sim is the deterministic large-scale federation simulator: a
// discrete-event virtual clock that replaces wall time throughout the fl
// stack, plus a scenario spec (N clients × data/speed/fault/codec
// profiles) that drives the unmodified fl.Controller round loop. A
// scenario client is an fl.Planner: its whole round is computed at
// dispatch and lands as one AfterFunc event on the clock's heap, so tens
// of thousands of clients with minutes of simulated straggling, scripted
// dropouts and mixed weight codecs run in a fraction of a second of real
// time without a goroutine each. Only work that really blocks (recovery
// probes, wrapped or non-planning executors) runs as a goroutine actor.
// Because every event fires in a single deterministic order, a fixed seed
// reproduces the run's History bit-for-bit at any GOMAXPROCS.
package sim

import (
	"fmt"
	"sync"
	"time"

	"clinfl/internal/fl"
)

// Clock is the canonical time-injection interface of the federation
// stack. It is an alias of fl.Clock (defined there so fl does not import
// this package); sim provides the deterministic implementation.
type Clock = fl.Clock

// Real returns the production wall clock.
func Real() Clock { return fl.RealClock() }

// event is one scheduled occurrence in virtual time. Exactly one of gate
// (a simulated actor waiting to run), notify (an After timer channel) and
// fire (an AfterFunc callback) is non-nil.
type event struct {
	at     time.Duration // virtual time since epoch
	seq    uint64
	gate   chan struct{}
	notify chan time.Time
	fire   func()
}

// eventHeap is a binary min-heap of events ordered by (time, schedule
// sequence): ties fire in the order they were scheduled, which is itself
// deterministic because scheduling is serialized by the run token. Since
// sequence numbers are unique the order is total, so the pop sequence is
// fixed by the events alone. It is typed rather than a container/heap
// over time.Time: a 30k-client round pushes and pops 30k events, and the
// integer compares without interface dispatch keep that off the profile.
type eventHeap []*event

// before is the heap order: earlier time first, then earlier schedule.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// push adds ev, sifting it up to its place.
func (h *eventHeap) push(ev *event) {
	q := append(*h, ev)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

// pop removes and returns the earliest event; the heap must be non-empty.
func (h *eventHeap) pop() *event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0], q[n] = q[n], nil
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q[r].before(q[m]) {
			m = r
		}
		if !q[m].before(q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// VirtualClock is a discrete-event clock with cooperative, single-token
// scheduling: at any instant either the driver (the goroutine running the
// federation's round loop and calling Wait) or exactly one simulated actor
// (a goroutine started via Go) executes. Actors yield the token by
// sleeping or finishing; the driver's Wait loop advances virtual time to
// the next scheduled event and hands the token to whichever actor it
// wakes. AfterFunc callbacks and After timers need no token: the Wait loop
// runs or delivers them itself. Because nothing ever runs concurrently
// with anything else, event order — and therefore channel delivery order,
// aggregation membership, and every floating-point accumulation — is a
// pure function of the scenario, not of the Go scheduler or GOMAXPROCS.
//
// Rules: the driver must block only through Wait (fl's gather loops do,
// via their injected clock); Sleep must only be called from goroutines
// started with Go; AfterFunc callbacks must not block.
type VirtualClock struct {
	mu     sync.Mutex
	now    time.Duration // virtual time since epoch; Now adds the epoch
	seq    uint64
	pq     eventHeap
	actors int

	// idle is the token's return path: an actor sends exactly one value
	// when it yields (sleeps or finishes) for each grant it received.
	idle chan struct{}
}

// epoch is the fixed virtual origin, so simulated timestamps (and the
// History durations derived from them) are identical across runs and
// machines.
var epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// NewVirtualClock returns a virtual clock starting at a fixed epoch.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{idle: make(chan struct{})}
}

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

// schedule stamps ev with (now+d, next sequence number) and pushes it:
// the one path every kind of event takes onto the heap.
func (vc *VirtualClock) schedule(d time.Duration, ev *event) {
	if d < 0 {
		d = 0
	}
	vc.mu.Lock()
	vc.seq++
	ev.at, ev.seq = vc.now+d, vc.seq
	vc.pq.push(ev)
	vc.mu.Unlock()
}

// Go implements Clock: fn becomes a simulated actor, scheduled to start at
// the current virtual time the next time the driver waits.
func (vc *VirtualClock) Go(fn func()) {
	g := make(chan struct{})
	vc.mu.Lock()
	vc.actors++
	vc.mu.Unlock()
	vc.schedule(0, &event{gate: g})
	go func() {
		<-g
		fn()
		vc.mu.Lock()
		vc.actors--
		vc.mu.Unlock()
		vc.idle <- struct{}{}
	}()
}

// Sleep implements Clock for actors: yield the token, resume when virtual
// time reaches the wake point.
func (vc *VirtualClock) Sleep(d time.Duration) {
	g := make(chan struct{})
	vc.schedule(d, &event{gate: g})
	vc.idle <- struct{}{}
	<-g
}

// After implements Clock: the returned channel delivers the virtual time
// once the driver's Wait loop advances past it.
func (vc *VirtualClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	vc.schedule(d, &event{notify: ch})
	return ch
}

// AfterFunc implements Clock: fn runs inline in the Wait loop once
// virtual time reaches now+d, ordered against every other event by (time,
// schedule sequence) — no goroutine, no token handoff.
func (vc *VirtualClock) AfterFunc(d time.Duration, fn func()) {
	vc.schedule(d, &event{fire: fn})
}

// Wait implements fl.Waiter: evaluate poll between events, advancing
// virtual time and running one actor (or AfterFunc callback) at a time,
// until poll succeeds (true) or virtual time reaches deadline (false; zero
// deadline never fires). An event scheduled exactly at the deadline loses
// the tie: the deadline fires first, deterministically.
func (vc *VirtualClock) Wait(poll func() bool, deadline time.Time) bool {
	dl, hasDeadline := deadline.Sub(epoch), !deadline.IsZero()
	for {
		if poll() {
			return true
		}
		vc.mu.Lock()
		if len(vc.pq) == 0 && !hasDeadline {
			n := vc.actors
			vc.mu.Unlock()
			panic(fmt.Sprintf("sim: virtual clock deadlock: nothing to advance (%d actors alive, no pending events, no deadline)", n))
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
		now := epoch.Add(vc.now)
		vc.mu.Unlock()
		switch {
		case ev.notify != nil:
			ev.notify <- now
		case ev.fire != nil:
			ev.fire()
		default:
			ev.gate <- struct{}{}
			<-vc.idle
		}
	}
}

// Drain advances virtual time until every pending event has fired and
// every actor has run to completion — typically called after a federation
// returns, so stragglers still in flight past the final round deliver
// (their AfterFuncs run, their actors finish) instead of leaking.
func (vc *VirtualClock) Drain() {
	vc.Wait(func() bool {
		vc.mu.Lock()
		defer vc.mu.Unlock()
		return len(vc.pq) == 0
	}, time.Time{})
}
