// Package reconcile implements the control-plane primitives behind the
// federation's peer-failure tolerance: a per-client health state machine
// and a deterministic delayed work queue, in the style of a Kubernetes
// controller's node monitor + rate-limited workqueue.
//
// The package is deliberately passive and dependency-free: it never reads
// a clock, starts a goroutine, or sleeps. Callers (fl.Controller,
// fl.Server) feed it observations stamped with their own injected clock's
// now and ask "who is due". That keeps every transition a pure function
// of the observation sequence, so a simulated federation replays its
// health history bit-identically at any GOMAXPROCS.
package reconcile

import (
	"sort"
	"time"
)

// Health is a client's position in the reconciliation state machine:
//
//	Unknown → Healthy → Suspect → Unreachable → Quarantined
//	              ↑________↑___________|________________|
//	                (rejoin: successful update or probe)
//
// Demotions are driven by consecutive failures (task execution, send, or
// probe); any success resets the client to Healthy. Suspect clients are
// still sampled (one failure is routine); Unreachable and Quarantined
// clients are excluded from sampling until a probe succeeds. Quarantine
// is the durable tier: the fl layer WAL-records entry and exit so a
// crash-restart does not resurrect a quarantined client into the pool.
type Health int

const (
	Unknown Health = iota
	Healthy
	Suspect
	Unreachable
	Quarantined
)

// String names the state for metrics labels and history snapshots.
func (h Health) String() string {
	switch h {
	case Unknown:
		return "unknown"
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Unreachable:
		return "unreachable"
	case Quarantined:
		return "quarantined"
	}
	return "invalid"
}

// States lists every health state in demotion order, for iterating gauge
// families deterministically.
func States() []Health {
	return []Health{Unknown, Healthy, Suspect, Unreachable, Quarantined}
}

// ParseHealth inverts String; unrecognized names map to Unknown (the
// safe default when replaying a WAL written by a newer build).
func ParseHealth(s string) Health {
	for _, h := range States() {
		if h.String() == s {
			return h
		}
	}
	return Unknown
}

// DelayFunc computes the delay before retry attempt (0-based) — the
// shape of fl.Backoff.Delay, accepted as a plain func so this package
// does not import the fl layer it serves.
type DelayFunc func(attempt int) time.Duration

// Config sets the demotion thresholds: a client reaches each tier after
// that many consecutive failures.
type Config struct {
	// SuspectAfter demotes Healthy → Suspect (default 1).
	SuspectAfter int
	// UnreachableAfter demotes → Unreachable, leaving the sample pool
	// (default 2).
	UnreachableAfter int
	// QuarantineAfter demotes → Quarantined, the durable tier
	// (default 4).
	QuarantineAfter int
	// ProbeDelay paces recovery probes of demoted clients: the n-th
	// consecutive failed probe schedules the next one ProbeDelay(n)
	// later. Nil means probes are due immediately.
	ProbeDelay DelayFunc
}

func (c Config) withDefaults() Config {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1
	}
	if c.UnreachableAfter <= c.SuspectAfter {
		c.UnreachableAfter = c.SuspectAfter + 1
	}
	if c.QuarantineAfter <= c.UnreachableAfter {
		c.QuarantineAfter = c.UnreachableAfter + 2
	}
	return c
}

// Transition reports one state-machine edge. The zero value (From == To
// == Unknown with an empty Client) means "no change".
type Transition struct {
	Client   string
	From, To Health
}

// Changed reports whether the transition is a real edge.
func (t Transition) Changed() bool { return t.From != t.To }

// entry is one client's mutable reconciliation state.
type entry struct {
	health Health
	// streak counts consecutive failures since the last success.
	streak int
	// probeAttempt counts consecutive failed probes since demotion.
	probeAttempt int
	// nextProbe is when the next recovery probe is due (zero = never:
	// the client is eligible and needs no probe).
	nextProbe time.Time
	// probing marks an in-flight probe so DueProbes never double-fires.
	probing bool
}

// Monitor tracks per-client health. It is not goroutine-safe: the round
// loop owns it and feeds it observations single-threaded, exactly like
// the rest of the gather state.
//
// A nil *Monitor is the null monitor of a federation that runs without a
// reconcile policy: it records nothing, every client stays eligible, no
// probe is ever due, and its snapshot is nil — so the round loop calls
// it unconditionally instead of guarding every observation.
type Monitor struct {
	cfg     Config
	clients map[string]*entry
}

// NewMonitor builds an empty monitor.
func NewMonitor(cfg Config) *Monitor {
	return &Monitor{cfg: cfg.withDefaults(), clients: make(map[string]*entry)}
}

// tracked is the client table; empty for the null monitor.
func (m *Monitor) tracked() map[string]*entry {
	if m == nil {
		return nil
	}
	return m.clients
}

func (m *Monitor) entryFor(name string) *entry {
	e, ok := m.clients[name]
	if !ok {
		e = &entry{}
		m.clients[name] = e
	}
	return e
}

// healthFor maps a failure streak to its tier.
func (m *Monitor) healthFor(streak int) Health {
	switch {
	case streak >= m.cfg.QuarantineAfter:
		return Quarantined
	case streak >= m.cfg.UnreachableAfter:
		return Unreachable
	case streak >= m.cfg.SuspectAfter:
		return Suspect
	}
	return Healthy
}

// Observe records the outcome of a task assignment (execution result,
// send failure, or timed-out reassignment) at time now. Success resets
// the client to Healthy; failure extends the streak and may demote. A
// demotion out of the sample pool schedules the first recovery probe.
func (m *Monitor) Observe(name string, ok bool, now time.Time) Transition {
	if m == nil {
		return Transition{}
	}
	e := m.entryFor(name)
	from := e.health
	if ok {
		e.streak = 0
		e.probeAttempt = 0
		e.nextProbe = time.Time{}
		e.probing = false
		e.health = Healthy
		return Transition{Client: name, From: from, To: e.health}
	}
	e.streak++
	next := m.healthFor(e.streak)
	if next > e.health {
		e.health = next
	}
	if !Eligible(e.health) && e.nextProbe.IsZero() && !e.probing {
		// First probe after leaving the pool: due after one probe delay,
		// not immediately — the failure that demoted the client just
		// happened, so an instant probe would only re-observe it.
		e.probeAttempt = 0
		e.nextProbe = now.Add(m.delay(0))
	}
	return Transition{Client: name, From: from, To: e.health}
}

// ProbeResult records the outcome of a recovery probe fired by
// DueProbes. Success rejoins the client (Healthy, back in the pool);
// failure backs off the next probe by ProbeDelay(attempt).
func (m *Monitor) ProbeResult(name string, ok bool, now time.Time) Transition {
	if m == nil {
		return Transition{}
	}
	e := m.entryFor(name)
	from := e.health
	e.probing = false
	if ok {
		e.streak = 0
		e.probeAttempt = 0
		e.nextProbe = time.Time{}
		e.health = Healthy
		return Transition{Client: name, From: from, To: e.health}
	}
	e.probeAttempt++
	e.nextProbe = now.Add(m.delay(e.probeAttempt))
	return Transition{Client: name, From: from, To: e.health}
}

func (m *Monitor) delay(attempt int) time.Duration {
	if m.cfg.ProbeDelay == nil {
		return 0
	}
	d := m.cfg.ProbeDelay(attempt)
	if d < 0 {
		d = 0
	}
	return d
}

// Eligible reports whether a state keeps the client in the sample pool.
func Eligible(h Health) bool { return h <= Suspect }

// Eligible reports whether the named client may be sampled. Never-seen
// clients are eligible (Unknown).
func (m *Monitor) Eligible(name string) bool { return Eligible(m.Health(name)) }

// Health returns the client's current state (Unknown when never seen).
func (m *Monitor) Health(name string) Health {
	e, ok := m.tracked()[name]
	if !ok {
		return Unknown
	}
	return e.health
}

// SetQuarantined seeds a client straight into Quarantined — WAL replay
// on restart, so a recorded quarantine survives the crash. The first
// recovery probe is due immediately.
func (m *Monitor) SetQuarantined(name string) {
	if m == nil {
		return
	}
	e := m.entryFor(name)
	e.health = Quarantined
	e.streak = m.cfg.QuarantineAfter
	e.probeAttempt = 0
	e.probing = false
	// Zero nextProbe means "no probe scheduled"; a quarantined client
	// must be probed, so mark it due at the epoch (always ripe).
	e.nextProbe = time.Unix(0, 0)
}

// DueProbes returns, in sorted name order, the demoted clients whose
// recovery probe is due at now, marking each as probing so it is not
// returned again until ProbeResult lands.
func (m *Monitor) DueProbes(now time.Time) []string {
	if m == nil {
		return nil
	}
	var due []string
	for name, e := range m.clients {
		if Eligible(e.health) || e.probing || e.nextProbe.IsZero() {
			continue
		}
		if e.nextProbe.After(now) {
			continue
		}
		due = append(due, name)
	}
	sort.Strings(due)
	for _, name := range due {
		m.clients[name].probing = true
	}
	return due
}

// NextProbeAt returns the earliest scheduled probe among demoted,
// not-currently-probing clients (zero time when none is scheduled).
func (m *Monitor) NextProbeAt() time.Time {
	var at time.Time
	if m == nil {
		return at
	}
	for _, e := range m.clients {
		if Eligible(e.health) || e.probing || e.nextProbe.IsZero() {
			continue
		}
		if at.IsZero() || e.nextProbe.Before(at) {
			at = e.nextProbe
		}
	}
	return at
}

// IsProbing reports whether the named client has a recovery probe in
// flight (fired by DueProbes, not yet resolved by ProbeResult).
func (m *Monitor) IsProbing(name string) bool {
	e, ok := m.tracked()[name]
	return ok && e.probing
}

// Probing reports whether any recovery probe is currently in flight.
func (m *Monitor) Probing() bool {
	if m == nil {
		return false
	}
	for _, e := range m.clients {
		if e.probing {
			return true
		}
	}
	return false
}

// Demoted reports whether any tracked client is out of the sample pool.
func (m *Monitor) Demoted() bool {
	for _, e := range m.tracked() {
		if !Eligible(e.health) {
			return true
		}
	}
	return false
}

// Counts tallies clients per state (Unknown counts only clients that
// have been observed and reset — never-seen clients aren't tracked).
func (m *Monitor) Counts() map[Health]int {
	out := make(map[Health]int, len(States()))
	for _, e := range m.tracked() {
		out[e.health]++
	}
	return out
}

// Snapshot returns every tracked client's state name, sorted-key-stable
// for history records (callers marshal it as a map; iteration order is
// irrelevant there).
func (m *Monitor) Snapshot() map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m.clients))
	for name, e := range m.clients {
		out[name] = e.health.String()
	}
	return out
}
