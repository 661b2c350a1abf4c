package fl

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"clinfl/internal/fl/durable"
	"clinfl/internal/metrics"
	"clinfl/internal/tensor"
)

// This file is the federation's one round engine. The in-process
// Controller and the networked Server both run their rounds through it:
//
//	prepare  — drain outcomes that landed between rounds, seed a round
//	           resumed from the WAL or sample a fresh one, log
//	           round-open / task-assigned, scatter, resolve the quorum
//	           and the early-aggregate trigger
//	gather   — one event loop (deadline, requeue queue, recovery probes,
//	           park, degrade) until the round is settled
//	finalize — the sink turns the accepted updates into the next model
//	commit   — WAL round-final + model-commit, metrics, model selection
//
// Two seams keep it free of transport and aggregation detail. A backend
// delivers normalized events and carries out task / probe requests (the
// Controller over planned clock events or executor goroutines, the Server
// over wire connections);
// a sink takes each accepted update (flatSink buffers for finalizeRound,
// tierSink folds or merges into O(model) partials). An Edge is the same
// engine one level down: the Server backend over its shard, a tierSink
// whose finalize keeps the partial, and a Client carrying it to the parent.
//
// Both seams speak dense client ids from one roster, so a round's
// per-client state is slices indexed by id, the health ladder and the retry
// queue included; names come back only where the engine writes text (the
// RoundRecord, Result.Health, WAL records, failure strings).

// roundConfig is the round policy of every front end: the engine's view of
// a ControllerConfig, a ServerConfig or (through its Server) an EdgeConfig.
// Each constructor copies its fields in and calls settle, the one place the
// round settings are checked and defaulted, so a setting means the same on
// every front end.
type roundConfig struct {
	// clients is the roster the quorum settings are checked against: the
	// executor count in-process, ExpectedClients on a Server or an Edge.
	clients int
	// networked marks a Server's engine, an Edge's included. Its tiers are
	// the deployed Edge topology, so it folds whatever it accepts into one
	// partial.
	networked      bool
	rounds         int
	minClients     int
	minUpdates     int
	sampleFraction float64
	deadline       time.Duration
	seed           int64
	aggregator     Aggregator
	async          AsyncAggregator
	validate       func(weights map[string]*tensor.Matrix) (float64, error)
	clock          Clock
	wal            *durable.WAL
	metrics        *metrics.Registry
	reconcile      *ReconcilePolicy
	tier           *TierConfig
	// logf receives progress lines; nil discards them.
	logf func(format string, args ...any)
}

// settle refuses every round setting no front end can run, naming the
// field, then fills the defaults: Rounds 0 runs one round, MinClients 0 is a
// floor of one update (NVFlare's min_clients), MinUpdates 0 waits for every
// tasked client, SampleFraction 0 or 1 tasks every idle client, a nil
// Aggregator is FedAvg and a nil Clock the wall clock. A Reconcile policy is
// settled into a copy, never through the caller's pointer.
func (c *roundConfig) settle() error {
	switch {
	case c.rounds < 0:
		return fmt.Errorf("fl: Rounds %d is negative", c.rounds)
	case c.minClients < 0 || c.minClients > c.clients:
		return fmt.Errorf("fl: MinClients %d is outside [0, %d], the roster's size", c.minClients, c.clients)
	case c.minUpdates < 0 || c.minUpdates > c.clients:
		return fmt.Errorf("fl: MinUpdates %d is outside [0, %d], the roster's size", c.minUpdates, c.clients)
	case !(c.sampleFraction >= 0 && c.sampleFraction <= 1): // NaN fails both
		return fmt.Errorf("fl: SampleFraction %v is outside [0, 1]", c.sampleFraction)
	case c.deadline < 0:
		return fmt.Errorf("fl: RoundDeadline %v is negative", c.deadline)
	case c.reconcile != nil && c.deadline == 0:
		// Without a deadline a round with a permanently failing client
		// would retry, or stay parked, forever.
		return errors.New("fl: Reconcile needs a RoundDeadline, which bounds every retry and every parked round")
	}
	if f, ok := c.async.(interface{ alpha() (float64, error) }); ok {
		if _, err := f.alpha(); err != nil {
			return fmt.Errorf("fl: AsyncAggregator %w", err)
		}
	}
	if t := c.tier; t != nil {
		// A tier refuses the features that assume the root sees raw
		// per-client updates, naming both.
		for _, w := range t.Aggregators {
			if w <= 0 {
				return fmt.Errorf("fl: Tier.Aggregators width %d must be positive", w)
			}
		}
		if _, fedAvg := c.aggregator.(FedAvg); c.aggregator != nil && !fedAvg {
			return fmt.Errorf("fl: Tier is incompatible with Aggregator %T (a tier is exact streaming FedAvg)", c.aggregator)
		}
		switch {
		case c.async != nil:
			return errors.New("fl: Tier is incompatible with AsyncAggregator (stragglers are dropped at tier nodes, not merged late)")
		case c.wal != nil:
			return errors.New("fl: Tier is incompatible with WAL (resume has no path to reseed a round from partial-aggregate payloads)")
		case c.reconcile != nil:
			return errors.New("fl: Tier is incompatible with Reconcile (per-client requeue needs root-visible clients)")
		}
	}
	if c.reconcile != nil {
		p := *c.reconcile
		switch {
		case p.QuarantineAfter < 0:
			return fmt.Errorf("fl: Reconcile.QuarantineAfter %d is negative", p.QuarantineAfter)
		case p.MaxAssignAttempts < 0:
			return fmt.Errorf("fl: Reconcile.MaxAssignAttempts %d is negative", p.MaxAssignAttempts)
		case p.MaxPark < 0:
			return fmt.Errorf("fl: Reconcile.MaxPark %v is negative", p.MaxPark)
		}
		if p.QuarantineAfter == 0 {
			p.QuarantineAfter = 4
		}
		if p.MaxAssignAttempts == 0 {
			p.MaxAssignAttempts = 3
		}
		if p.MaxPark == 0 {
			p.MaxPark = 30 * time.Second
		}
		c.reconcile = &p
	}
	c.rounds = max(c.rounds, 1)
	if c.aggregator == nil {
		c.aggregator = FedAvg{}
	}
	if c.clock == nil {
		c.clock = RealClock()
	}
	return nil
}

// eventKind classifies a backend delivery.
type eventKind int

const (
	// evIgnore is a delivery that changes nothing — a message from a
	// superseded connection generation.
	evIgnore eventKind = iota
	// evUpdate is a client's trained update.
	evUpdate
	// evFailure is a failed assignment or a rejected message.
	evFailure
	// evProbe is a recovery probe's outcome (err nil: the client answered).
	evProbe
	// evReattach is a client re-attached on a new connection; whatever it
	// was working on went down with the old one.
	evReattach
)

// event is one backend delivery, normalized so the gather never sees an
// execOutcome or an inboxMsg.
type event struct {
	kind eventKind
	// id is the client's roster id.
	id int
	// round is the round the client was tasked for (-1: it held no task),
	// read from the backend's own task record — never from what the
	// client claims — so a straggler is recognized as late, a tasked client
	// always releases its slot, and an untasked one cannot claim one.
	round  int
	update *ClientUpdate
	err    error
	// cause labels an evFailure in fl_failures_total: "exec", "conn" or
	// "reject".
	cause string
}

// backend is what the engine needs from a transport. All methods are
// called from the Run goroutine only.
type backend interface {
	// begin readies the round's task (the wire encodes the model once).
	begin(round int, global map[string]*tensor.Matrix) error
	// poll returns an already-delivered event without blocking.
	poll() (event, bool)
	// next blocks for the next event until the wake instant (zero: no
	// wake-up) or until done is closed.
	next(done <-chan struct{}, wake time.Time) (event, waitStatus)
	// idle lists the live clients holding no task, in the transport's
	// canonical order (executor order on the Controller, name order on the
	// Server), and the sampling denominator. Sampling, substitute dispatch
	// and the parked round all draw from this one list.
	idle() (ids []int, total int)
	// task hands the round's task to an idle client and reports the
	// downlink payload bytes it cost.
	task(id int) (down int, err error)
	// probe fires a recovery probe; its answer arrives as an evProbe. An
	// error means the probe could not even be sent.
	probe(id int) error
}

// sink receives a round's accepted updates and produces the next model.
type sink interface {
	// open starts a round over the sampled clients, given in name order.
	open(sampled []int)
	// accept takes one validated in-round update from client id; an error
	// rejects it as a per-client failure.
	accept(id int, u *ClientUpdate) error
	// finalize aggregates what was accepted, merges the late updates, and
	// fills the record's loss. The engine counts the accepted updates' bytes
	// itself; finalize adds only those of the late updates it applies.
	finalize(round int, global map[string]*tensor.Matrix, late []*ClientUpdate, rec *RoundRecord) (map[string]*tensor.Matrix, error)
}

// roster interns client names into dense ids, handed out in order of first
// sight (executor order on the Controller, admission order on the Server)
// and never reused. The Run goroutine owns it.
type roster struct {
	names []string // by id
	ids   map[string]int
	// sorted is every id in name order. Ids interned since it was last
	// built are appended and the lot sorted once, never inserted one at a
	// time: that is quadratic over a large registration.
	sorted []int
}

func newRoster(capacity int) *roster {
	return &roster{names: make([]string, 0, capacity), ids: make(map[string]int, capacity)}
}

// add returns name's id, interning it as the next id on first sight.
func (r *roster) add(name string) int {
	if id, ok := r.ids[name]; ok {
		return id
	}
	id := len(r.names)
	r.names = append(r.names, name)
	r.ids[name] = id
	return id
}

// byName returns every id in name order; the caller must not modify it.
func (r *roster) byName() []int {
	if len(r.sorted) < len(r.names) {
		for id := len(r.sorted); id < len(r.names); id++ {
			r.sorted = append(r.sorted, id)
		}
		slices.SortFunc(r.sorted, func(a, b int) int { return strings.Compare(r.names[a], r.names[b]) })
	}
	return r.sorted
}

// source adapts a transport's delivery channel to the backend's poll and
// next: one non-blocking receive, one wait, one timer policy.
type source[T any] struct {
	clk       Clock
	ch        <-chan T
	normalize func(T) event
	// timerAt / timer are the armed real-clock wake-up. It is reused while
	// the wake instant is unchanged, so a round with no retries or probes
	// arms one timer, not one per message.
	timerAt time.Time
	timer   <-chan time.Time
	// waitPoll is the poll a Waiter clock evaluates between events, built
	// once on the first virtual wait; done, got and status are its state for
	// the current wait, so a delivered event allocates nothing.
	waitPoll func() bool
	done     <-chan struct{}
	got      T
	status   waitStatus
}

func (s *source[T]) poll() (event, bool) {
	select {
	case v := <-s.ch:
		return s.normalize(v), true
	default:
		return event{}, false
	}
}

// next waits for the next value on the channel until wake (zero = no
// deadline), aborting when done (a context's Done channel; nil = never) is
// closed. Under a Waiter clock the wait is mediated by the event loop, so
// delivery order and deadline outcomes are deterministic; under any other
// clock it is a plain select on a timer armed for wake.
func (s *source[T]) next(done <-chan struct{}, wake time.Time) (event, waitStatus) {
	if w, virtual := s.clk.(Waiter); virtual {
		if s.waitPoll == nil {
			s.waitPoll = s.ready
		}
		s.done, s.status = done, waitOK
		ok := w.Wait(s.waitPoll, wake)
		v := s.got
		var zero T
		s.done, s.got = nil, zero
		if !ok {
			return event{}, waitDeadline
		}
		if s.status != waitOK {
			return event{}, s.status
		}
		return s.normalize(v), waitOK
	}
	if !wake.Equal(s.timerAt) {
		s.timerAt, s.timer = wake, nil
		if !wake.IsZero() {
			s.timer = time.After(wake.Sub(s.clk.Now()))
		}
	}
	select {
	case v := <-s.ch:
		return s.normalize(v), waitOK
	case <-s.timer:
		s.timerAt, s.timer = time.Time{}, nil // spent
		return event{}, waitDeadline
	case <-done:
		return event{}, waitCancelled
	}
}

// ready is the Waiter poll: a closed done ends the wait as cancelled, a
// value on the channel ends it as delivered.
func (s *source[T]) ready() bool {
	select {
	case <-s.done:
		s.status = waitCancelled
		return true
	default:
	}
	select {
	case v := <-s.ch:
		s.got = v
		return true
	default:
		return false
	}
}

// engine runs the rounds of one federation.
type engine struct {
	roundConfig
	ros  *roster
	be   backend
	sink sink
	rng  *tensor.RNG
	met  flMetrics
	// slots backs each round's gather.slots, so the per-client table is
	// allocated once per run, not once per round; names does the same for
	// gather.names.
	slots []slot
	names []string
	// ladder / pol are the health ladder and the retry policy. Without a
	// ReconcilePolicy the same loop runs under the null policy: a nil
	// ladder (records nothing, everyone eligible, no probes) and one
	// attempt per slot. The null policy also keeps three outcomes of the
	// pre-reconciliation federation, each keyed on the nil ladder: a
	// deadline that finds the round below quorum fails it at once instead
	// of waiting out the stragglers, a short round is never marked
	// Degraded, and a client that re-attaches mid-task is simply sent the
	// task again (there is no retry queue to race).
	ladder *ladder
	pol    ReconcilePolicy
}

// newEngine runs a settled cfg over the backend. The sink follows the
// config: a flat buffer for the Aggregator, or, with a Tier, partials that
// fold each update as it arrives so the node never holds per-client weight
// maps. An in-process root lays its tiers out itself; a networked node
// merges what its deployed Edges send.
func newEngine(cfg roundConfig, ros *roster, be backend) *engine {
	var sk sink = &flatSink{agg: cfg.aggregator, async: cfg.async}
	if cfg.tier != nil {
		t := &tierSink{}
		if !cfg.networked {
			t.widths = cfg.tier.widths()
		}
		sk = t
	}
	e := &engine{
		roundConfig: cfg, ros: ros, be: be, sink: sk,
		rng: tensor.NewRNG(cfg.seed + 7919),
		met: newFLMetrics(cfg.metrics),
		pol: ReconcilePolicy{MaxAssignAttempts: 1},
	}
	if cfg.reconcile != nil {
		e.pol = *cfg.reconcile
		e.ladder = &ladder{pol: e.pol}
	}
	if e.logf == nil {
		e.logf = func(string, ...any) {}
	}
	return e
}

// run executes the federation's rounds from initial, honoring ctx
// cancellation between rounds and inside a gather.
func (e *engine) run(ctx context.Context, initial map[string]*tensor.Matrix) (*Result, error) {
	global := cloneWeights(initial)
	res := &Result{History: History{BestRound: -1}}

	// A durable run picks up where the WAL left off: the last committed
	// model replaces initial, and a round that was open at the crash is
	// resumed — its recorded updates re-seeded, only the pending clients
	// re-tasked.
	startRound := 0
	var resume *durable.OpenRound
	if e.wal != nil {
		st := e.wal.Recovered()
		if st.Records > 0 {
			e.met.reg.Counter("fl_recoveries_total", "runs resumed from a non-empty WAL").Inc()
		}
		if st.Weights != nil {
			global = cloneWeights(st.Weights)
		}
		startRound = st.LastRound + 1
		if st.Open != nil {
			startRound = st.Open.Round
			resume = st.Open
			e.logf("resuming open round %d from WAL (%d tasked, %d updates recovered)",
				resume.Round, len(resume.Tasked), len(resume.Updates))
		} else if st.Records > 0 {
			e.logf("resuming from WAL at round %d (last committed %d)", startRound, st.LastRound)
		}
		// Replayed quarantine decisions take effect before any sampling:
		// a crash must not resurrect a quarantined client into the pool.
		for name, state := range st.Health {
			if state == quarantined.String() {
				e.ladder.quarantine(e.ros.add(name))
			}
		}
		e.met.syncHealthGauges(e.ladder)
	}

	for round := startRound; round < e.rounds; round++ {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("fl: cancelled before round %d: %w", round, ctx.Err())
		default:
		}
		start := e.clock.Now()
		rec := RoundRecord{Round: round}
		next, err := e.runRound(ctx, global, resume, &rec)
		resume = nil
		if err != nil {
			return nil, err
		}
		global = next
		rec.Duration = e.clock.Since(start)
		if err := e.commit(res, &rec, global); err != nil {
			return nil, err
		}
	}
	res.FinalWeights = global
	if res.BestWeights == nil {
		res.BestWeights = cloneWeights(global)
	}
	res.Health = e.ladder.snapshot(e.ros.names)
	return res, nil
}

// commit is the per-round epilogue: the WAL commit point, metrics, model
// selection and the history append.
func (e *engine) commit(res *Result, rec *RoundRecord, global map[string]*tensor.Matrix) error {
	if e.wal != nil {
		// The commit point: once RecModelCommit is durable (group committed
		// by the syncer, settled by Close) a restart starts at round+1 and
		// never re-runs this round. An unsynced commit lost to a crash just
		// re-runs the round from its durable updates to the byte-identical
		// model.
		if err := e.wal.AppendRoundFinal(rec.Round, rec.Participants); err != nil {
			return fmt.Errorf("fl: round %d: %w", rec.Round, err)
		}
		if err := e.wal.AppendModelCommit(rec.Round, global); err != nil {
			return fmt.Errorf("fl: round %d: %w", rec.Round, err)
		}
	}
	e.met.roundDone(rec)
	if e.validate != nil {
		score, err := e.validate(global)
		if err != nil {
			return fmt.Errorf("fl: round %d validate: %w", rec.Round, err)
		}
		rec.ValScore = score
		if res.History.BestRound < 0 || score > res.History.BestScore {
			res.History.BestRound = rec.Round
			res.History.BestScore = score
			res.BestWeights = cloneWeights(global)
		}
	}
	res.History.Rounds = append(res.History.Rounds, *rec)
	e.logf("round %d/%d done in %v (mean loss %.4f, %d/%d participants, %d up / %d down bytes)",
		rec.Round+1, e.rounds, rec.Duration.Round(time.Millisecond), rec.MeanTrainLoss,
		len(rec.Participants), len(rec.Sampled), rec.BytesUp, rec.BytesDown)
	return nil
}

// slot is the engine's per-round record of one client.
type slot struct {
	// attempt is the assignment the client is working on (1 = the
	// original dispatch), 0 when it holds none; origin is the client the
	// assignment was first sampled for.
	attempt int
	origin  string
	// sampled: listed in the record's Sampled. done: its update was
	// accepted this round.
	sampled, done bool
}

// gather is one round's mutable state.
type gather struct {
	e      *engine
	round  int
	global map[string]*tensor.Matrix
	// names is global's parameter names, sorted once for the round's
	// update checks (backed by engine.names).
	names []string
	rec   *RoundRecord
	late  []*ClientUpdate
	// retries is the queue of failed assignments waiting to run again, in
	// insertion order. One client can hold two: its own, and one it took
	// as a substitute.
	retries []assignment
	// slots is indexed by roster id. It covers the roster as it stood when
	// the round was sampled; slot grows it for a client interned since.
	slots []slot
	// open is false until the scatter: before it no client holds a slot of
	// this round, so events are only absorbed (the between-rounds drain and
	// the pre-scatter park).
	open bool
	// pending counts assignments in flight; got the accepted updates.
	pending, got       int
	quorum, minUpdates int
	deadlineAt         time.Time
	deadlineFired      bool
	parked             bool
	parkDeadline       time.Time
}

// runRound drives one round from the drain to the aggregated model.
func (e *engine) runRound(ctx context.Context, global map[string]*tensor.Matrix, resume *durable.OpenRound, rec *RoundRecord) (map[string]*tensor.Matrix, error) {
	round := rec.Round
	if err := e.be.begin(round, global); err != nil {
		return nil, err
	}
	e.names = slices.AppendSeq(e.names[:0], maps.Keys(global))
	slices.Sort(e.names)
	g := &gather{e: e, round: round, global: global, names: e.names, rec: rec}
	// Stragglers that finished between rounds drain first, so they become
	// idle (sample-able) again and their updates enter this round's
	// staleness handling instead of rotting in the channel.
	for ev, ok := e.be.poll(); ok; ev, ok = e.be.poll() {
		if err := g.handle(ev, e.clock.Now()); err != nil {
			return nil, err
		}
	}

	var sampled, toTask []int
	var seeded []*ClientUpdate
	if resume != nil {
		sampled, toTask, seeded = g.reseed(resume)
	} else {
		var err error
		if toTask, err = g.sample(ctx); err != nil {
			return nil, err
		}
		sampled = toTask
	}
	e.slots = append(e.slots[:0], make([]slot, len(e.ros.names))...)
	g.slots = e.slots
	for _, id := range sampled {
		g.slots[id].sampled = true
	}
	e.sink.open(g.byName(len(sampled), func(s *slot) bool { return s.sampled }))
	for _, u := range seeded {
		id := e.ros.add(u.ClientName)
		if err := e.sink.accept(id, u); err != nil {
			return nil, fmt.Errorf("fl: round %d: reseed %s: %w", round, u.ClientName, err)
		}
		g.accepted(u)
		g.slot(id).done = true
		g.got++
	}

	// No fsync barrier before the scatter: file order gives the WAL a
	// durable prefix (an fsync covering this round's open covers the
	// previous commit too, so replay can never pair a new round with stale
	// weights), and a lost suffix re-opens the round and recomputes it
	// byte-identically. The background syncer flushes the scatter while
	// the clients train.
	now := e.clock.Now()
	if e.deadline > 0 {
		g.deadlineAt = now.Add(e.deadline)
	}
	g.open = true
	for _, id := range toTask {
		if err := g.dispatch(assignment{id: id, attempt: 1, origin: e.ros.names[id]}, id, false, now); err != nil {
			return nil, err
		}
	}
	// The quorum is clamped to the clients the round was opened for, not
	// to those whose task went out: a failed send counts against an
	// explicitly configured floor, it never silently lowers it.
	g.quorum = e.minClients
	if g.quorum > len(rec.Sampled) {
		g.quorum = len(rec.Sampled)
	}
	if g.quorum < 1 {
		g.quorum = 1
	}
	g.minUpdates = e.minUpdates
	if avail := g.pending + g.got; g.minUpdates <= 0 || g.minUpdates > avail {
		g.minUpdates = avail
	}
	if g.minUpdates < g.quorum {
		// An early aggregate below the quorum would always fail it; wait
		// for the quorum before cutting the round short.
		g.minUpdates = g.quorum
	}

	if err := g.wait(ctx); err != nil {
		return nil, err
	}
	switch {
	case g.got >= g.minUpdates:
	case g.got >= g.quorum:
		// At or above quorum but short of the trigger: the deadline or the
		// parking budget cut a mass-failure round short.
		g.degrade()
	case e.ladder != nil && e.async != nil && g.got > 0:
		// Below quorum. The async path finalizes what it has as a degraded
		// partial round — FedAsync already tolerates weight drift from
		// missing participants; the synchronous path must fail.
		g.degrade()
	default:
		return nil, fmt.Errorf("fl: round %d quorum not met: %d/%d updates (failures: %v)",
			round, g.got, g.quorum, rec.Failures)
	}
	if len(rec.Failures) > 0 || g.got < len(rec.Sampled) {
		e.logf("round %d proceeded with %d/%d clients (failures: %v)", round, g.got, len(rec.Sampled), rec.Failures)
	}
	next, err := e.sink.finalize(round, global, g.late, rec)
	if err != nil {
		return nil, err
	}
	// The accept step's bounds keep FedAvg and the tier fold finite, but an
	// aggregator is pluggable: a non-finite model is never committed.
	for _, name := range g.names {
		if m := next[name]; m != nil && !tensor.AllFinite(m.Data()) {
			return nil, fmt.Errorf("fl: round %d: aggregate param %q is non-finite", round, name)
		}
	}
	// The participants are the clients whose update this round's accept step
	// took, whatever the sink made of them: the edges at a tier root, not the
	// leaves behind them.
	done := g.byName(g.got, func(s *slot) bool { return s.done })
	if len(done) > 0 {
		rec.Participants = make([]string, len(done))
		for i, id := range done {
			rec.Participants[i] = e.ros.names[id]
		}
	}
	return next, nil
}

// byName lists, in name order, the ids of the clients whose slot passes
// keep; n is how many are expected.
func (g *gather) byName(n int, keep func(*slot) bool) []int {
	ids := make([]int, 0, n)
	for _, id := range g.e.ros.byName() {
		if id < len(g.slots) && keep(&g.slots[id]) {
			ids = append(ids, id)
		}
	}
	return ids
}

// degrade marks a round finalized short of its trigger.
func (g *gather) degrade() {
	if g.e.ladder != nil {
		g.rec.Degraded = true
		g.e.met.degraded.Inc()
	}
}

// idleEligible is the sample pool: the backend's idle clients the health
// ladder still admits, and the sampling denominator.
func (e *engine) idleEligible() ([]int, int) {
	ids, total := e.be.idle()
	if e.ladder == nil {
		return ids, total // the null policy admits everyone
	}
	pool := ids[:0]
	for _, id := range ids {
		if e.ladder.eligible(id) {
			pool = append(pool, id)
		}
	}
	return pool, total
}

// sample picks a fresh round's clients and logs the round open. With the
// whole roster demoted or busy a reconciling round parks until a recovery
// probe (or a returning straggler) readmits someone.
func (g *gather) sample(ctx context.Context) ([]int, error) {
	e := g.e
	pool, total := e.idleEligible()
	if len(pool) == 0 && e.ladder != nil {
		g.park(e.clock.Now())
		if err := g.wait(ctx); err != nil {
			return nil, err
		}
		g.parked = false
		pool, total = e.idleEligible()
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("fl: round %d: no idle clients to task (every client is busy, dead or demoted)", g.round)
	}
	if e.sampleFraction > 0 && e.sampleFraction < 1 {
		k := int(math.Ceil(float64(total) * e.sampleFraction))
		if k < 1 {
			k = 1
		}
		if k > len(pool) {
			k = len(pool)
		}
		e.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		pool = pool[:k]
	}
	g.rec.Sampled = make([]string, len(pool))
	for i, id := range pool {
		g.rec.Sampled[i] = e.ros.names[id]
	}
	if e.wal != nil {
		if err := e.wal.AppendRoundOpen(g.round); err != nil {
			return nil, fmt.Errorf("fl: round %d: %w", g.round, err)
		}
		for _, name := range g.rec.Sampled {
			if err := e.wal.AppendTaskAssigned(g.round, name); err != nil {
				return nil, fmt.Errorf("fl: round %d: %w", g.round, err)
			}
		}
	}
	return pool, nil
}

// reseed rebuilds a round that was open at a crash from its WAL records:
// the recorded updates are seeded instead of re-trained and only the
// tasked-but-unheard clients are tasked again. Clients are pure functions
// of (round, global), so the resumed round aggregates exactly what the
// uninterrupted one would have. An update that no longer decodes, or that
// the accept step would reject today, counts as never received: its
// client is tasked again like any other unheard one. A tasked client not
// yet back after the restart is interned, so a later re-attach finds its
// slot.
func (g *gather) reseed(resume *durable.OpenRound) (sampled, toTask []int, seeded []*ClientUpdate) {
	e := g.e
	have := make(map[string]bool, len(resume.Updates))
	for _, u := range resume.Updates {
		cu, err := recoveredUpdate(u, g.round)
		if err == nil {
			err = checkUpdate(g.global, g.names, cu)
		}
		if err != nil {
			g.rec.Failures = append(g.rec.Failures, fmt.Sprintf("%s: update recovered from WAL unusable: %v", u.Client, err))
			e.met.failure("reject")
			continue
		}
		seeded = append(seeded, cu)
		have[u.Client] = true
	}
	ids, _ := e.be.idle()
	idle := make([]bool, len(e.ros.names))
	for _, id := range ids {
		idle[id] = true
	}
	for _, name := range resume.Tasked {
		id := e.ros.add(name)
		g.rec.Sampled = append(g.rec.Sampled, name)
		sampled = append(sampled, id)
		switch {
		case have[name]:
		case id >= len(idle) || !idle[id]:
			g.rec.Failures = append(g.rec.Failures, fmt.Sprintf("%s: tasked before crash, not back after restart", name))
			e.met.failure("conn")
		case !e.ladder.eligible(id):
			// Quarantined by a replayed health record: the pre-crash task
			// assignment does not override the quarantine.
			g.rec.Failures = append(g.rec.Failures, fmt.Sprintf("%s: quarantined, not re-tasked on resume", name))
			e.met.failure("exec")
		default:
			toTask = append(toTask, id)
		}
	}
	return sampled, toTask, seeded
}

// recoveredUpdate turns an update replayed from the WAL into the
// ClientUpdate a resumed round aggregates, whichever record kind logged
// it: an older log's RecUpdate weights as they are, a RecUpdatePayload's
// uplink wire-backed after the check walk — the very bytes the live round
// folded, so the resumed aggregate is bit-identical.
func recoveredUpdate(u *durable.Update, round int) (*ClientUpdate, error) {
	cu := &ClientUpdate{
		ClientName: u.Client, Round: round, Weights: u.Weights,
		NumSamples: u.NumSamples, TrainLoss: u.TrainLoss,
		PayloadBytes: u.PayloadBytes,
	}
	if u.Weights == nil {
		params, err := checkPayload(u.Payload)
		if err != nil {
			return nil, err
		}
		cu.payload, cu.params = u.Payload, params
	}
	return cu, nil
}

// park starts a bounded wait for recovery probes to revive someone.
func (g *gather) park(now time.Time) {
	g.parked = true
	g.parkDeadline = now.Add(g.e.pol.MaxPark)
	g.e.met.parked.Inc()
}

// wait is the federation's one gather loop. After the scatter it runs
// until the round is settled: failed assignments are requeued with
// backoff and re-dispatched (to the same client, or — with Substitute — an
// idle eligible one) until the round deadline; demoted clients are probed
// and may be tasked on recovery; and a round that can no longer reach its
// trigger parks awaiting probes, bounded by MaxPark, instead of
// deadlocking. Before the scatter (a round parked with nobody to sample)
// it only absorbs events until someone is idle and eligible again.
func (g *gather) wait(ctx context.Context) error {
	e := g.e
	now := e.clock.Now()
	for {
		if g.open && !g.deadlineFired && !g.deadlineAt.IsZero() && !now.Before(g.deadlineAt) {
			// Stragglers stay tasked; their updates surface as late
			// events in a future round (NVFlare's
			// wait_time_after_min_received semantics, made durable). Queued
			// retries die with the deadline; the failures that queued them
			// are already in rec.Failures, so nothing is silently lost.
			g.deadlineFired = true
			e.met.stragglers.Add(int64(g.pending))
			g.retries = g.retries[:0]
		}
		switch {
		case !g.open:
			if pool, _ := e.idleEligible(); len(pool) > 0 {
				return nil
			}
			if !now.Before(g.parkDeadline) {
				return fmt.Errorf("fl: round %d: no eligible clients after parking %v (every client busy, dead or demoted; failures so far: %v)",
					g.round, e.pol.MaxPark, g.rec.Failures)
			}
		case g.got >= g.minUpdates:
			return nil
		case g.deadlineFired && (g.got >= g.quorum || e.ladder == nil):
			return nil
		case g.parked && !now.Before(g.parkDeadline):
			return nil // parking budget exhausted: degrade or fail on the quorum
		}
		for _, a := range g.dueRetries(now) {
			if err := g.redispatch(a, now); err != nil {
				return err
			}
		}
		for _, id := range e.ladder.due(e.ros, now) {
			if err := e.be.probe(id); err != nil {
				// Unsendable: the probe fails at once, backing off the next
				// one — the client rejoins by reconnecting and answering a
				// later probe.
				e.met.probe("fail")
				if err := e.healthEdge(g.round, e.ladder.probed(id, false, now)); err != nil {
					return err
				}
			}
		}
		if g.open && g.pending == 0 && len(g.retries) == 0 {
			// Starved: nothing in flight, nothing queued, below the
			// trigger. Recoverable only if probes are running or scheduled;
			// otherwise give up now.
			if !e.ladder.recovering() {
				return nil
			}
			if !g.parked {
				g.park(now)
			}
		}
		var wake time.Time
		earliest := func(t time.Time) {
			if !t.IsZero() && (wake.IsZero() || t.Before(wake)) {
				wake = t
			}
		}
		if !g.deadlineFired {
			earliest(g.deadlineAt)
		}
		for _, a := range g.retries {
			earliest(a.readyAt)
		}
		earliest(e.ladder.nextProbeAt())
		if g.parked {
			earliest(g.parkDeadline)
		}
		ev, status := e.be.next(ctx.Done(), wake)
		now = e.clock.Now()
		switch status {
		case waitDeadline:
			continue
		case waitCancelled:
			return fmt.Errorf("fl: round %d cancelled: %w", g.round, ctx.Err())
		}
		if err := g.handle(ev, now); err != nil {
			return err
		}
	}
}

// handle applies one event to the round. It serves the between-rounds
// drain, the parked wait and the gather alike: before the scatter no event
// can belong to this round, so everything lands as stale.
func (g *gather) handle(ev event, now time.Time) error {
	e := g.e
	if ev.kind == evIgnore {
		return nil
	}
	name := e.ros.names[ev.id]
	switch ev.kind {
	case evProbe:
		if !e.ladder.probing(ev.id) {
			return nil // an answer to no probe of ours
		}
		result := "ok"
		if ev.err != nil {
			result = "fail"
		}
		e.met.probe(result)
		if err := e.healthEdge(g.round, e.ladder.probed(ev.id, ev.err == nil, now)); err != nil {
			return err
		}
		// Revived mid-round: if the round still cannot reach its trigger
		// with what is in flight and queued, task the recovered client.
		need := g.minUpdates
		if g.deadlineFired {
			need = g.quorum
		}
		if ev.err == nil && g.open && g.got+g.pending+len(g.retries) < need && !g.slot(ev.id).done {
			return g.redispatch(assignment{id: ev.id, attempt: 1, origin: "probe"}, now)
		}

	case evReattach:
		if ev.err != nil {
			g.rec.Failures = append(g.rec.Failures, fmt.Sprintf("%s: resume ack: %v", name, ev.err))
			e.met.failure("conn")
		}
		if !g.open {
			// No task of this round is out yet: the re-attach just revived
			// the connection; a demoted client rejoins via the next probe.
			return nil
		}
		a := assignment{id: ev.id, attempt: 1, origin: name}
		held := g.holds(ev)
		if held {
			_, a = g.release(ev.id)
		}
		if e.ladder != nil {
			if !held {
				return nil
			}
			// The old connection took the assignment with it; requeue it
			// rather than racing a blind re-send against the retry queue.
			if err := g.failed(ev.id, false, "conn", errors.New("connection replaced mid-task"), now); err != nil {
				return err
			}
			g.requeue(a, now)
			return nil
		}
		// Null policy: send the task again so the round can still complete,
		// whether the slot was still held or its connection error had
		// already released it.
		if s := g.slot(ev.id); ev.err == nil && s.sampled && !s.done {
			return g.dispatch(a, ev.id, false, now)
		}

	case evFailure:
		return g.failed(ev.id, g.holds(ev), ev.cause, ev.err, now)

	case evUpdate:
		if !g.holds(ev) {
			// A straggler from an earlier round: merged by the staleness
			// policy at finalize, or dropped.
			if err := e.healthEdge(g.round, e.ladder.observe(ev.id, true, now)); err != nil {
				return err
			}
			if e.async != nil {
				g.late = append(g.late, ev.update)
			} else {
				g.rec.LateDropped = append(g.rec.LateDropped, name)
				ev.update.release()
			}
			return nil
		}
		// The single accept step. Validation comes before the WAL: a
		// malformed update must be one client's failure, never a durable
		// record that aborts this run and every restart after it.
		err := checkUpdate(g.global, g.names, ev.update)
		if err == nil {
			err = e.sink.accept(ev.id, ev.update)
		}
		if err != nil {
			ev.update.release()
			return g.failed(ev.id, true, "reject", err, now)
		}
		g.accepted(ev.update)
		s, _ := g.release(ev.id)
		if err := e.healthEdge(g.round, e.ladder.observe(ev.id, true, now)); err != nil {
			return err
		}
		if err := e.logUpdate(g.round, ev); err != nil {
			return err
		}
		s.done = true
		g.got++
	}
	return nil
}

// holds reports whether the event's client was working on this round's
// task, per the backend's task record.
func (g *gather) holds(ev event) bool { return g.open && ev.round == g.round }

// accepted counts an update the sink took in the round's byte totals, the
// one writer of in-round bytes whatever the sink.
func (g *gather) accepted(u *ClientUpdate) {
	g.rec.BytesUp += int64(u.PayloadBytes)
	g.rec.BytesDown += int64(u.DownBytes)
}

// failed records a client failure — a failed client is never silently
// absent — and, when it cost this round an assignment (mine), releases the
// slot and requeues it under the policy.
func (g *gather) failed(id int, mine bool, cause string, err error, now time.Time) error {
	e := g.e
	g.rec.Failures = append(g.rec.Failures, fmt.Sprintf("%s: %v", e.ros.names[id], err))
	e.met.failure(cause)
	var tr transition
	switch {
	case cause == "conn" && e.ladder.probing(id):
		// The connection died between the probe and its answer.
		e.met.probe("fail")
		tr = e.ladder.probed(id, false, now)
	case cause != "reject" || mine:
		// A rejected message nobody was waiting for says nothing about the
		// client's ability to do this round's work.
		tr = e.ladder.observe(id, false, now)
	}
	if err := e.healthEdge(g.round, tr); err != nil {
		return err
	}
	if mine {
		_, a := g.release(id)
		g.requeue(a, now)
	}
	return nil
}

// slot returns a client's record for this round. A client interned after
// the round was sampled (a mid-run join) grows the table; the pointer is
// good until the next call.
func (g *gather) slot(id int) *slot {
	if id >= len(g.slots) {
		g.slots = append(g.slots, make([]slot, id+1-len(g.slots))...)
		g.e.slots = g.slots
	}
	return &g.slots[id]
}

// assignment is one unit of the round's work for client id: attempt
// (1 = the original dispatch) of the slot first sampled for origin. A
// queued retry also carries the instant it becomes ready.
type assignment struct {
	id, attempt int
	origin      string
	readyAt     time.Time
}

// release frees the slot a client held and returns it with the assignment
// it was working on (attempt 0 when it held none).
func (g *gather) release(id int) (*slot, assignment) {
	g.pending--
	s := g.slot(id)
	a := assignment{id: id, attempt: s.attempt, origin: s.origin}
	s.attempt = 0
	return s, a
}

// requeue schedules retry attempt a.attempt+1 of a failed slot, unless the
// slot is out of attempts or the retry could not run before the round
// deadline. The triggering failure is already recorded, so a task that
// dies here is abandoned, never silently lost.
func (g *gather) requeue(a assignment, now time.Time) {
	pol := &g.e.pol
	if a.attempt == 0 || g.deadlineFired || a.attempt >= pol.MaxAssignAttempts {
		return
	}
	a.readyAt = now.Add(pol.RequeueBackoff.Delay(a.attempt - 1))
	if !g.deadlineAt.IsZero() && !a.readyAt.Before(g.deadlineAt) {
		return
	}
	a.attempt++
	g.retries = append(g.retries, a)
	g.e.met.requeues.Inc()
}

// dueRetries pops every queued retry ready at now, in (readyAt, insertion)
// order.
func (g *gather) dueRetries(now time.Time) []assignment {
	var due []assignment
	rest := g.retries[:0]
	for _, a := range g.retries {
		if a.readyAt.After(now) {
			rest = append(rest, a)
		} else {
			due = append(due, a)
		}
	}
	g.retries = rest
	slices.SortStableFunc(due, func(a, b assignment) int { return a.readyAt.Compare(b.readyAt) })
	return due
}

// redispatch hands a ready assignment to its client — or, when that client
// is dead, busy, demoted, or already counted, to the first idle eligible
// substitute in the backend's canonical order (deterministic). An
// assignment with no viable target is abandoned; its triggering failure is
// already recorded.
func (g *gather) redispatch(a assignment, now time.Time) error {
	pool, _ := g.e.idleEligible()
	target := -1
	for _, id := range pool {
		if g.slot(id).done {
			continue
		}
		if id == a.id {
			target = id
			break
		}
		if target < 0 && g.e.pol.Substitute {
			target = id
		}
	}
	if target < 0 {
		return nil
	}
	return g.dispatch(a, target, true, now)
}

// dispatch tasks target with assignment a. A retry is recorded in the
// round's Reassigned / Sampled and the WAL; the original scatter was
// recorded when the round opened. A failed send requeues a for its own
// client.
func (g *gather) dispatch(a assignment, target int, retry bool, now time.Time) error {
	e := g.e
	down, err := e.be.task(target)
	if err != nil {
		if err := g.failed(target, false, "send", fmt.Errorf("send task: %w", err), now); err != nil {
			return err
		}
		g.requeue(a, now)
		return nil
	}
	s := g.slot(target)
	s.attempt, s.origin = a.attempt, a.origin
	if retry {
		name := e.ros.names[target]
		g.rec.Reassigned = append(g.rec.Reassigned, a.origin+">"+name)
		if !s.sampled {
			s.sampled = true
			g.rec.Sampled = append(g.rec.Sampled, name)
		}
		if e.wal != nil {
			if err := e.wal.AppendTaskAssigned(g.round, name); err != nil {
				return fmt.Errorf("fl: round %d: %w", g.round, err)
			}
		}
	}
	g.rec.BytesDown += int64(down)
	g.pending++
	return nil
}

// healthEdge records a health transition in metrics and — for the durable
// pool-membership edges, quarantine entry and the rejoin clearing it — in
// the WAL.
func (e *engine) healthEdge(round int, tr transition) error {
	if tr.from == tr.to {
		return nil
	}
	e.met.healthTransition(e.ladder, tr)
	if e.wal != nil && (tr.to == quarantined || tr.from == quarantined) {
		if err := e.wal.AppendHealth(round, e.ros.names[tr.id], tr.to.String()); err != nil {
			return fmt.Errorf("fl: round %d: %w", round, err)
		}
	}
	return nil
}

// logUpdate appends an accepted update to the WAL (when there is one) as
// an uplink payload. An update that arrived on the wire is logged as that
// payload, verbatim: a resumed round folds the same bytes the live round
// did, so nothing is re-encoded and the record is wire-sized. An
// in-process one has no wire form and is logged raw-encoded, which is
// exact. The append is lazy, group-committed by the WAL's syncer; a crash
// that loses it re-tasks the client on resume, and the recomputation is
// byte-identical — either way the round's participant set is consistent
// on disk and in memory.
func (e *engine) logUpdate(round int, ev event) error {
	if e.wal == nil {
		return nil
	}
	u, name := ev.update, e.ros.names[ev.id]
	var err error
	payload := u.payload
	if payload == nil {
		payload, err = EncodeWeights(u.Weights)
	}
	if err == nil {
		err = e.wal.AppendUpdatePayload(round, name, u.NumSamples, u.TrainLoss, payload)
	}
	if err != nil {
		return fmt.Errorf("fl: round %d: %w", round, err)
	}
	return nil
}

// maxClaimedSamples bounds the sample count one client update may claim.
// FedAvg weights each update by its own claim, so without a bound one
// site could set the global model by claiming 2^31−1 samples. 2^21 also
// keeps weight × value exact in one float64 for f32 and int8 values (a
// 32-bit significand times a 21-bit integer). hier.Partial.Fold applies
// the same bound; an edge's partial carries the sum of checked claims and
// is exempt.
const maxClaimedSamples = 1 << 21

// maxMagnitude bounds |v| for every value an update may carry. A claim is
// below 2^21, so with up to 2^20 updates a round's Σ w·v stays below
// 2^1021 and no fold, flat or tier, can overflow on finite input. It is a
// safety rail, not a knob. int8, f32 and top-k values are below 2^128 by
// construction, so the check walk scans only a raw body for it.
// hier.Partial.Fold applies the same bound.
const maxMagnitude = 0x1p980

// checkUpdate is the accept step's validation of an in-round update
// against the round's global model: everything Aggregate would otherwise
// discover only after the update is durable. names is global's keys,
// sorted. A wire-backed update is checked on what its check walk read, so
// a payload whose shapes do not match is rejected before anything is
// allocated for it.
func checkUpdate(global map[string]*tensor.Matrix, names []string, u *ClientUpdate) error {
	if u.hierPartial != nil {
		return nil // an edge's partial: validated by its decoder, merged by shape
	}
	if u.NumSamples < 1 {
		return fmt.Errorf("update carries %d samples, want at least 1", u.NumSamples)
	}
	if u.NumSamples >= maxClaimedSamples {
		return fmt.Errorf("update claims %d samples, want fewer than %d", u.NumSamples, maxClaimedSamples)
	}
	if math.IsNaN(u.TrainLoss) || math.IsInf(u.TrainLoss, 0) {
		return errors.New("update carries a non-finite train loss")
	}
	if n := u.numParams(); n != len(global) {
		return fmt.Errorf("update carries %d params, want %d", n, len(global))
	}
	return checkShapes(global, names, u)
}

// checkShapes verifies an update covers every global parameter with
// matching dimensions and finite values below maxMagnitude: one NaN would
// otherwise average into every client's next model. It walks names
// (global's keys, sorted), so of several bad params it always reports the
// same one.
func checkShapes(global map[string]*tensor.Matrix, names []string, u *ClientUpdate) error {
	for _, name := range names {
		g := global[name]
		p, ok := u.param(name)
		if !ok {
			return fmt.Errorf("missing param %q", name)
		}
		if p.rows != g.Rows() || p.cols != g.Cols() {
			return fmt.Errorf("param %q shape %dx%d, want %dx%d",
				name, p.rows, p.cols, g.Rows(), g.Cols())
		}
		if p.bad != nil {
			return fmt.Errorf("param %q has %w", name, p.bad)
		}
	}
	return nil
}

// param looks up one of the update's params: in the check walk's report
// (name-sorted, as the frame requires) for a wire-backed update, else in
// its weight map.
func (u *ClientUpdate) param(name string) (paramCheck, bool) {
	if u.wire() {
		i, ok := slices.BinarySearchFunc(u.params, name, func(p paramCheck, name string) int {
			return strings.Compare(p.name, name)
		})
		if !ok {
			return paramCheck{}, false
		}
		return u.params[i], true
	}
	w, ok := u.Weights[name]
	if !ok {
		return paramCheck{}, false
	}
	return paramCheck{name, w.Rows(), w.Cols(), checkValues(w.Data())}, true
}

// flatSink buffers a round's updates and aggregates them in one batch: the
// flat federation.
type flatSink struct {
	agg     Aggregator
	async   AsyncAggregator
	updates []*ClientUpdate
}

func (s *flatSink) open([]int) { s.updates = nil }

func (s *flatSink) accept(_ int, u *ClientUpdate) error {
	s.updates = append(s.updates, u)
	return nil
}

func (s *flatSink) finalize(round int, _ map[string]*tensor.Matrix, late []*ClientUpdate, rec *RoundRecord) (map[string]*tensor.Matrix, error) {
	next, err := finalizeRound(s.agg, s.async, s.updates, late, round, rec)
	for _, u := range s.updates {
		u.release() // the fold was each payload's last read
	}
	if err != nil {
		return nil, err
	}
	var lossSum, weightSum float64
	for _, u := range s.updates {
		lossSum += float64(u.TrainLoss * float64(u.NumSamples)) // the conversion forbids a fused multiply-add
		weightSum += float64(u.NumSamples)
	}
	if weightSum > 0 {
		rec.MeanTrainLoss = lossSum / weightSum
	}
	return next, nil
}

// finalizeRound is the flat end-of-round aggregation: the batch aggregate,
// then the staleness-weighted merge of each late update. A late update
// that fails shape-checking, decoding or merging lands in rec.Failures and
// is skipped: one straggler's bad payload must not abort the federation.
//
// Both update batches are sorted into a canonical order (in-round by client
// name, late by round then name) before any floating-point accumulation, so
// the aggregated model is a pure function of the participating set: the
// order updates happened to arrive — a race under the real clock — can
// never change the global weights, and fixed-seed simulator runs reproduce
// bit-identically at any GOMAXPROCS.
func finalizeRound(agg Aggregator, async AsyncAggregator,
	updates, late []*ClientUpdate, round int, rec *RoundRecord) (map[string]*tensor.Matrix, error) {
	sort.Slice(updates, func(i, j int) bool { return updates[i].ClientName < updates[j].ClientName })
	sort.Slice(late, func(i, j int) bool {
		if late[i].Round != late[j].Round {
			return late[i].Round < late[j].Round
		}
		return late[i].ClientName < late[j].ClientName
	})
	next, err := agg.Aggregate(updates)
	if err != nil {
		return nil, fmt.Errorf("fl: round %d aggregate: %w", round, err)
	}
	// Stragglers' updates merge after the in-round aggregate so the fresh
	// average is never clobbered. A late payload was never checked against
	// a model: its shapes are its own claim until they match this round's,
	// and the pre-check also keeps a mismatched update from partially
	// mutating the model inside Apply. LateApplied records a merge only
	// once it actually reached the global model.
	var names []string
	if len(late) > 0 {
		names = slices.Sorted(maps.Keys(next))
	}
	for _, lu := range late {
		err := checkShapes(next, names, lu)
		if err == nil {
			err = lu.decode()
		}
		lu.release()
		if err != nil {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: late update: %v", lu.ClientName, err))
			continue
		}
		if err := async.Apply(next, lu, round-lu.Round); err != nil {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: late merge: %v", lu.ClientName, err))
			continue
		}
		rec.LateApplied = append(rec.LateApplied, lu.ClientName)
		rec.BytesUp += int64(lu.PayloadBytes)
		rec.BytesDown += int64(lu.DownBytes)
	}
	return next, nil
}

// cloneWeights deep-copies a weight map.
func cloneWeights(w map[string]*tensor.Matrix) map[string]*tensor.Matrix {
	out := make(map[string]*tensor.Matrix, len(w))
	for name, m := range w {
		out[name] = m.Clone()
	}
	return out
}
