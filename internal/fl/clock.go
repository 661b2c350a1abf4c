package fl

import "time"

// Clock abstracts the federation stack's time: round timestamps, gather
// deadlines, and the arrival of planned client work (a Planner's round
// outcome or a Prober's answer, posted for a later instant) — so a whole
// in-process federated run can execute under a simulated clock. The
// contract is shared with sim.Clock (the canonical name; internal/sim
// aliases this interface): production code uses the real clock returned by
// RealClock, and internal/sim provides a deterministic discrete-event
// VirtualClock whose only events are AfterFunc callbacks.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time
	// Since is Now().Sub(t).
	Since(t time.Time) time.Duration
	// AfterFunc calls fn once d has elapsed. fn must not block. The real
	// clock runs it on a timer goroutine; a virtual clock runs it inline
	// on the event loop when virtual time reaches the instant — one heap
	// event, no goroutine.
	AfterFunc(d time.Duration, fn func())
}

// Waiter is the optional deterministic-wait capability of a virtual clock.
// Wait evaluates poll between simulated events: it returns true as soon as
// poll succeeds, running due callbacks one at a time in between, and
// false once virtual time reaches deadline (a zero deadline never fires).
// The round engine's gather uses it, when available, instead of a select
// over real timer channels — that is what makes "which updates beat the
// round deadline" a pure function of the scenario rather than of goroutine
// scheduling. Nothing blocks on a Waiter clock except its Wait caller, so
// the Controller accepts only Planner executors on one.
type Waiter interface {
	Wait(poll func() bool, deadline time.Time) bool
}

// realClock is the production Clock: thin wrappers over package time.
type realClock struct{}

// RealClock returns the wall-clock Clock used by default everywhere a
// config leaves Clock nil.
func RealClock() Clock { return realClock{} }

func (realClock) Now() time.Time                       { return time.Now() }
func (realClock) Since(t time.Time) time.Duration      { return time.Since(t) }
func (realClock) AfterFunc(d time.Duration, fn func()) { time.AfterFunc(d, fn) }

// waitStatus reports how a gather wait ended.
type waitStatus int

const (
	waitOK waitStatus = iota
	waitDeadline
	waitCancelled
)
