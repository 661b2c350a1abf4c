package fl

import "time"

// ReconcilePolicy moves the round engine's gather from "a failure is
// terminal" to reconciliation: failed or timed-out task assignments are
// requeued with jittered-exponential backoff and re-dispatched (to the
// same client, or a substitute) within the round deadline; repeated failures
// demote a client down the health ladder and exclude it from sampling
// until a recovery probe succeeds; and a round starved below quorum parks
// until probes revive clients instead of failing or deadlocking. Nil (the
// default on ControllerConfig/ServerConfig) runs the same gather under the
// null policy — one attempt per assignment, no health tracking — which is
// the pre-reconciliation federation exactly.
type ReconcilePolicy struct {
	// QuarantineAfter is the consecutive-failure count N that quarantines
	// a client (default 4). The ladder below it is fixed: one failure makes
	// a client suspect and min(2, N) unreachable, so QuarantineAfter 1
	// quarantines on the first failure. Quarantine entry and exit are
	// WAL-recorded on durable runs.
	QuarantineAfter int
	// RequeueBackoff paces task re-assignment: retry attempt n of a
	// round slot becomes ready Delay(n-1) after the failure (zero value:
	// 100ms doubling to 30s — set Base/Max well under RoundDeadline).
	RequeueBackoff Backoff
	// ProbeBackoff paces recovery probes of demoted clients: the n-th
	// consecutive failed probe schedules the next one Delay(n) later.
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

// health is a client's rung on the reconciliation ladder:
//
//	unknown → healthy → suspect → unreachable → quarantined
//	             ↑_________↑___________|_______________|
//	               (rejoin: successful update or probe)
//
// Consecutive failures (task execution, send, or probe) demote; any
// success resets the client to healthy. Suspect clients are still sampled
// (one failure is routine); unreachable and quarantined clients are
// excluded from sampling until a probe succeeds. Quarantine is the durable
// rung: the engine WAL-records entry and exit so a crash-restart does not
// resurrect a quarantined client into the pool.
type health int8

const (
	unknown health = iota
	healthy
	suspect
	unreachable
	quarantined
)

// healthNames are the rungs' names, in ladder order, for metrics labels,
// Result.Health and RecHealth records.
var healthNames = [...]string{"unknown", "healthy", "suspect", "unreachable", "quarantined"}

func (h health) String() string { return healthNames[h] }

// eligible reports whether a rung keeps the client in the sample pool.
func (h health) eligible() bool { return h <= suspect }

// rung is one client's reconciliation state.
type rung struct {
	health health
	// streak counts consecutive failures since the last success.
	streak int
	// probeAttempt counts consecutive failed probes since the demotion.
	probeAttempt int
	// nextProbe is when the next recovery probe is due (zero: none is
	// scheduled, the client is eligible).
	nextProbe time.Time
	// probing marks a probe in flight, so due never fires it twice.
	probing bool
}

// transition is one edge of a client's health; from == to is no edge.
type transition struct {
	id       int
	from, to health
}

// ladder is a reconcile policy's per-client health, indexed by roster id
// and grown with the roster, as engine.slots is. It never reads a clock:
// the gather stamps every observation with its own now, so each transition
// is a pure function of the observation sequence and a simulated
// federation replays its health history bit-identically at any
// GOMAXPROCS.
//
// A nil *ladder is the null policy: it records nothing, every client
// stays eligible, no probe is ever due and its snapshot is nil, so the
// gather calls it unconditionally.
type ladder struct {
	pol   ReconcilePolicy // settled
	rungs []rung
}

// at returns id's rung, growing the table for a client interned since.
func (l *ladder) at(id int) *rung {
	if id >= len(l.rungs) {
		l.rungs = append(l.rungs, make([]rung, id+1-len(l.rungs))...)
	}
	return &l.rungs[id]
}

// observe records the outcome of a task assignment (execution result,
// send failure, or timed-out reassignment) at now. Success resets the
// client to healthy; failure extends the streak and may demote. A demotion
// out of the sample pool schedules the first recovery probe one probe
// delay out, not at once: the failure that demoted the client just
// happened, so an instant probe would only re-observe it.
func (l *ladder) observe(id int, ok bool, now time.Time) transition {
	if l == nil {
		return transition{}
	}
	r := l.at(id)
	from := r.health
	if ok {
		*r = rung{health: healthy}
		return transition{id, from, healthy}
	}
	r.streak++
	next := suspect // any failure
	switch q := l.pol.QuarantineAfter; {
	case r.streak >= q:
		next = quarantined
	case r.streak >= min(2, q):
		next = unreachable
	}
	r.health = max(r.health, next)
	if !r.health.eligible() && r.nextProbe.IsZero() && !r.probing {
		r.nextProbe = now.Add(l.pol.ProbeBackoff.Delay(0))
	}
	return transition{id, from, r.health}
}

// probed records the outcome of a recovery probe fired by due. Success
// rejoins the client (healthy, back in the pool); failure backs the next
// probe off by ProbeBackoff.Delay(attempt).
func (l *ladder) probed(id int, ok bool, now time.Time) transition {
	if l == nil || ok {
		return l.observe(id, ok, now)
	}
	r := l.at(id)
	from := r.health
	r.probing = false
	r.probeAttempt++
	r.nextProbe = now.Add(l.pol.ProbeBackoff.Delay(r.probeAttempt))
	return transition{id, from, r.health}
}

// quarantine seeds a client straight into quarantine — WAL replay on
// restart, so a recorded quarantine survives the crash. Its first recovery
// probe is due at once.
func (l *ladder) quarantine(id int) {
	if l == nil {
		return
	}
	// A zero nextProbe means "none scheduled"; the epoch is always ripe.
	*l.at(id) = rung{health: quarantined, streak: l.pol.QuarantineAfter, nextProbe: time.Unix(0, 0)}
}

// get returns id's rung; a client never observed is unknown.
func (l *ladder) get(id int) rung {
	if l == nil || id >= len(l.rungs) {
		return rung{}
	}
	return l.rungs[id]
}

// eligible reports whether client id may be sampled.
func (l *ladder) eligible(id int) bool { return l.get(id).health.eligible() }

// probing reports whether client id has a recovery probe in flight.
func (l *ladder) probing(id int) bool { return l.get(id).probing }

// scheduled reports whether r is demoted and waits on a probe not yet
// fired.
func (r *rung) scheduled() bool {
	return !r.health.eligible() && !r.probing && !r.nextProbe.IsZero()
}

// due returns the demoted clients whose recovery probe is due at now, in
// the roster's name order, and marks each probing so it is not returned
// again until its answer lands.
func (l *ladder) due(ros *roster, now time.Time) []int {
	if l == nil {
		return nil
	}
	var out []int
	for _, id := range ros.byName() {
		if id < len(l.rungs) && l.rungs[id].scheduled() && !l.rungs[id].nextProbe.After(now) {
			l.rungs[id].probing = true
			out = append(out, id)
		}
	}
	return out
}

// nextProbeAt returns the earliest scheduled probe among demoted clients
// with none in flight (zero when none is scheduled).
func (l *ladder) nextProbeAt() time.Time {
	var at time.Time
	if l == nil {
		return at
	}
	for i := range l.rungs {
		r := &l.rungs[i]
		if r.scheduled() && (at.IsZero() || r.nextProbe.Before(at)) {
			at = r.nextProbe
		}
	}
	return at
}

// recovering reports whether a probe is in flight or scheduled: whether a
// starved round can still be revived.
func (l *ladder) recovering() bool {
	if l == nil {
		return false
	}
	for i := range l.rungs {
		if r := &l.rungs[i]; r.probing || r.scheduled() {
			return true
		}
	}
	return false
}

// snapshot names every observed client's rung (nil for the null policy).
func (l *ladder) snapshot(names []string) map[string]string {
	if l == nil {
		return nil
	}
	out := make(map[string]string)
	for id, r := range l.rungs {
		if r.health != unknown {
			out[names[id]] = r.health.String()
		}
	}
	return out
}

// healthTransition records a ladder edge in the metrics registry and
// refreshes the fl_client_health gauge family.
func (m flMetrics) healthTransition(l *ladder, tr transition) {
	m.reg.Counter("fl_health_transitions_total", "client health state-machine edges",
		"from", tr.from.String(), "to", tr.to.String()).Inc()
	m.syncHealthGauges(l)
}

// syncHealthGauges sets fl_client_health{state} to the ladder's current
// per-rung population of observed clients. The null policy tracks nobody
// and exports no gauge family.
func (m flMetrics) syncHealthGauges(l *ladder) {
	if m.reg == nil || l == nil {
		return
	}
	var counts [len(healthNames)]int
	for _, r := range l.rungs {
		if r.health != unknown {
			counts[r.health]++
		}
	}
	for h, name := range healthNames {
		m.reg.Gauge("fl_client_health", "clients per health state", "state", name).Set(float64(counts[h]))
	}
}
