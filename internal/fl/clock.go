package fl

import "time"

// Clock abstracts every use of wall-clock time in the federation stack —
// round timestamps, gather deadlines, injected client delays, and the
// client work itself: a Planner's outcome posted for a later instant
// (AfterFunc), or a blocking executor's goroutine (Go) — so a whole
// federated run can execute under a simulated clock. The contract is shared
// with sim.Clock (the canonical name; internal/sim aliases this
// interface): production code uses the real clock returned by RealClock,
// and internal/sim provides a deterministic discrete-event VirtualClock
// that advances virtual time only when every tracked activity is blocked.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time
	// Since is Now().Sub(t).
	Since(t time.Time) time.Duration
	// Sleep blocks the caller for d. Under a virtual clock, Sleep must be
	// called from a goroutine started via Go — it yields to the event loop
	// and resumes when virtual time reaches the wake point.
	Sleep(d time.Duration)
	// After returns a channel that delivers the time once d has elapsed.
	After(d time.Duration) <-chan time.Time
	// AfterFunc calls fn once d has elapsed. fn must not block. The real
	// clock runs it on a timer goroutine; a virtual clock runs it inline
	// on the event loop when virtual time reaches the instant — one heap
	// event, no goroutine.
	AfterFunc(d time.Duration, fn func())
	// Go runs fn concurrently as an activity tracked by the clock. The
	// real clock spawns a plain goroutine; a virtual clock registers fn as
	// a simulated actor so its sleeps drive — and are driven by — the
	// event loop. Work that never blocks belongs in AfterFunc instead.
	Go(fn func())
}

// Waiter is the optional deterministic-wait capability of a virtual clock.
// Wait evaluates poll between simulated events: it returns true as soon as
// poll succeeds, advancing virtual time event by event in between, and
// false once virtual time reaches deadline (a zero deadline never fires).
// The round engine's gather uses it, when available, instead of a select
// over real timer channels — that is what makes "which updates beat the
// round deadline" a pure function of the scenario rather than of goroutine
// scheduling.
type Waiter interface {
	Wait(poll func() bool, deadline time.Time) bool
}

// realClock is the production Clock: thin wrappers over package time.
type realClock struct{}

// RealClock returns the wall-clock Clock used by default everywhere a
// config leaves Clock nil.
func RealClock() Clock { return realClock{} }

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (realClock) AfterFunc(d time.Duration, fn func())   { time.AfterFunc(d, fn) }
func (realClock) Go(fn func())                           { go fn() }

// waitStatus reports how a gather wait ended.
type waitStatus int

const (
	waitOK waitStatus = iota
	waitDeadline
	waitCancelled
)

// waitRecv waits for the next value on ch until the deadline fires — the
// absolute instant for a Waiter clock, the timer channel armed for that
// instant for any other (zero/nil = no deadline) — optionally aborting when
// done (a context's Done channel; nil = never) is closed. Under a Waiter
// clock the wait is mediated by the event loop, so delivery order and
// deadline outcomes are deterministic; under any other clock it is a plain
// select.
func waitRecv[T any](clk Clock, ch <-chan T, done <-chan struct{}, deadlineAt time.Time, deadlineCh <-chan time.Time) (T, waitStatus) {
	var zero T
	if w, ok := clk.(Waiter); ok {
		var got T
		status := waitOK
		if w.Wait(func() bool {
			select {
			case <-done:
				status = waitCancelled
				return true
			default:
			}
			select {
			case v := <-ch:
				got = v
				return true
			default:
				return false
			}
		}, deadlineAt) {
			return got, status
		}
		return zero, waitDeadline
	}
	select {
	case v := <-ch:
		return v, waitOK
	case <-deadlineCh:
		return zero, waitDeadline
	case <-done:
		return zero, waitCancelled
	}
}
