package fl

import (
	"time"

	"clinfl/internal/fl/reconcile"
)

// ReconcilePolicy moves the round engine's gather from "a failure is
// terminal" to reconciliation: failed or timed-out task assignments are
// requeued with jittered-exponential backoff and re-dispatched (to the
// same client, or a substitute) within the round deadline; repeated failures
// demote a client through the reconcile.Health ladder and exclude it
// from sampling until a recovery probe succeeds; and a round starved
// below quorum parks until probes revive clients instead of failing or
// deadlocking. Nil (the default on ControllerConfig/ServerConfig) runs
// the same gather under the null policy — one attempt per assignment, no
// health tracking — which is the pre-reconciliation federation exactly.
type ReconcilePolicy struct {
	// SuspectAfter / UnreachableAfter / QuarantineAfter are the
	// consecutive-failure demotion thresholds (defaults 1 / 2 / 4).
	// Quarantine entry and exit are WAL-recorded on durable runs.
	SuspectAfter, UnreachableAfter, QuarantineAfter int
	// RequeueBackoff paces task re-assignment: retry attempt n of a
	// round slot becomes ready Delay(n-1) after the failure (zero value:
	// 100ms doubling to 30s — set Base/Max well under RoundDeadline).
	RequeueBackoff Backoff
	// ProbeBackoff paces recovery probes of demoted clients.
	ProbeBackoff Backoff
	// MaxAssignAttempts bounds total assignments of one round slot,
	// original dispatch included (default 3).
	MaxAssignAttempts int
	// Substitute re-dispatches a failed slot to an idle eligible client
	// when the original is no longer eligible (or on any retry where the
	// original is demoted). Off, retries always target the original.
	Substitute bool
	// MaxPark bounds how long a starved round waits for probes to revive
	// demoted clients before giving up with a quorum error (default 30s;
	// keep it above ProbeBackoff.Base or parking can never help).
	MaxPark time.Duration
}

// withDefaults fills zero fields.
func (p ReconcilePolicy) withDefaults() ReconcilePolicy {
	if p.MaxAssignAttempts <= 0 {
		p.MaxAssignAttempts = 3
	}
	if p.MaxPark <= 0 {
		p.MaxPark = 30 * time.Second
	}
	return p
}

// monitor builds the policy's health state machine.
func (p ReconcilePolicy) monitor() *reconcile.Monitor {
	return reconcile.NewMonitor(reconcile.Config{
		SuspectAfter:     p.SuspectAfter,
		UnreachableAfter: p.UnreachableAfter,
		QuarantineAfter:  p.QuarantineAfter,
		ProbeDelay:       p.ProbeBackoff.Delay,
	})
}

// Prober is the optional probe capability of an Executor: a cheap
// liveness check of a demoted client, distinct from running a round.
// Like a Planner's round, a probe is planned: Probe returns at once with
// the answer and the offset from now at which it lands, and the Controller
// posts it as one Clock.AfterFunc event. Executors that do not implement
// it are assumed recoverable once the probe backoff has elapsed (the probe
// trivially succeeds at once) — for in-process executors there is nothing
// to check. The networked server probes real clients with a
// MsgPing/MsgPong round-trip instead.
type Prober interface {
	Probe() (time.Duration, error)
}

// healthTransition records a state-machine edge in the metrics registry
// and refreshes the fl_client_health gauge family.
func (m flMetrics) healthTransition(mon *reconcile.Monitor, tr reconcile.Transition) {
	if !tr.Changed() {
		return
	}
	m.reg.Counter("fl_health_transitions_total", "client health state-machine edges",
		"from", tr.From.String(), "to", tr.To.String()).Inc()
	m.syncHealthGauges(mon)
}

// syncHealthGauges sets fl_client_health{state} to the monitor's current
// per-state population. The null monitor tracks nobody and exports no
// gauge family.
func (m flMetrics) syncHealthGauges(mon *reconcile.Monitor) {
	if m.reg == nil || mon == nil {
		return
	}
	counts := mon.Counts()
	for _, h := range reconcile.States() {
		m.reg.Gauge("fl_client_health", "clients per health state",
			"state", h.String()).Set(float64(counts[h]))
	}
}
