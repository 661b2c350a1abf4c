package fl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"clinfl/internal/tensor"
)

// The tests in this file drive the round engine's gather state machine
// directly: a scripted backend stands in for the transport and a manual
// clock for time, so every case is a deterministic sequence of events with
// no goroutine and no connection anywhere.

// scriptClock is a manual clock; only the scripted backend moves it.
type scriptClock struct{ now time.Time }

func (c *scriptClock) Now() time.Time                  { return c.now }
func (c *scriptClock) Since(t time.Time) time.Duration { return c.now.Sub(t) }
func (c *scriptClock) AfterFunc(time.Duration, func()) { panic("scriptClock: no timers") }

// outcome is what a scripted client does with one task: after the delay
// it answers with an update (optionally a malformed one) or fails. A
// refused task fails in the send; a lost one is never answered (its
// connection went away).
type outcome struct {
	after     time.Duration
	fail      bool
	malformed bool
	refuse    bool
	lost      bool
}

// scriptBackend implements backend over a script: task(id) consumes the
// client's next outcome and schedules the matching event; next delivers
// scheduled events in time order, or advances the clock to the wake
// instant. Its roster order is the order the test lists the clients in.
type scriptBackend struct {
	t   *testing.T
	clk *scriptClock
	ros *roster
	// script holds each client's outcomes, one per task it is handed; a
	// client handed more tasks than it has outcomes fails the test.
	script map[string][]outcome
	// busy marks, by id, clients holding a task; queue holds the
	// deliveries still to come, in time order.
	busy  []bool
	queue []scheduled
	round int
	// probes logs the recovery probes the engine fired.
	probes []string
}

type scheduled struct {
	at time.Time
	ev event
}

func newScriptBackend(t *testing.T, clk *scriptClock, names []string, script map[string][]outcome) *scriptBackend {
	ros := newRoster(len(names))
	for _, name := range names {
		ros.add(name)
	}
	return &scriptBackend{t: t, clk: clk, ros: ros, script: script, busy: make([]bool, len(names))}
}

// delivery is an event the script injects a fixed time after the start,
// whatever the engine does, from the named client ("": no client).
type delivery struct {
	after  time.Duration
	client string
	ev     event
}

func (b *scriptBackend) schedule(after time.Duration, ev event) {
	b.queue = append(b.queue, scheduled{at: b.clk.now.Add(after), ev: ev})
	sort.SliceStable(b.queue, func(i, j int) bool { return b.queue[i].at.Before(b.queue[j].at) })
}

func (b *scriptBackend) begin(round int, _ map[string]*tensor.Matrix) error {
	b.round = round
	return nil
}

func (b *scriptBackend) poll() (event, bool) { return event{}, false }

func (b *scriptBackend) next(_ <-chan struct{}, wake time.Time) (event, waitStatus) {
	// Like the simulator's clock, an event due exactly at the wake instant
	// loses the tie: the deadline fires first.
	if len(b.queue) == 0 || (!wake.IsZero() && !b.queue[0].at.Before(wake)) {
		if wake.IsZero() {
			b.t.Fatal("engine waits with nothing scheduled and no wake-up: deadlock")
		}
		b.clk.now = wake
		return event{}, waitDeadline
	}
	head := b.queue[0]
	b.queue = b.queue[1:]
	b.clk.now = head.at
	if head.ev.kind != evProbe {
		b.busy[head.ev.id] = false
	}
	return head.ev, waitOK
}

func (b *scriptBackend) idle() ([]int, int) {
	var ids []int
	for id, busy := range b.busy {
		if !busy {
			ids = append(ids, id)
		}
	}
	return ids, len(b.busy)
}

func (b *scriptBackend) task(id int) (int, error) {
	name := b.ros.names[id]
	if len(b.script[name]) == 0 {
		b.t.Fatalf("client %s tasked more often than scripted", name)
	}
	o := b.script[name][0]
	b.script[name] = b.script[name][1:]
	if o.refuse {
		return 0, errors.New("scripted send failure")
	}
	b.busy[id] = true
	ev := event{kind: evUpdate, id: id, round: b.round, update: scriptUpdate(name, b.round)}
	switch {
	case o.lost:
		return 0, nil
	case o.fail:
		ev = event{kind: evFailure, id: id, round: b.round, err: errors.New("scripted failure"), cause: "exec"}
	case o.malformed:
		ev.update.NumSamples = 0
	}
	b.schedule(o.after, ev)
	return 0, nil
}

func (b *scriptBackend) probe(id int) error {
	b.probes = append(b.probes, b.ros.names[id])
	b.schedule(5*time.Millisecond, event{kind: evProbe, id: id})
	return nil
}

func scriptWeights(v float64) map[string]*tensor.Matrix {
	w := tensor.New(1, 2)
	w.Fill(v)
	return map[string]*tensor.Matrix{"w": w}
}

func scriptUpdate(name string, round int) *ClientUpdate {
	return &ClientUpdate{ClientName: name, Round: round, Weights: scriptWeights(1), NumSamples: 10, TrainLoss: 0.5}
}

func TestRoundEngineGatherStateMachine(t *testing.T) {
	const ms = time.Millisecond
	ok := func(after time.Duration) []outcome { return []outcome{{after: after}} }
	// newEngine takes a settled config, so the policy spells out settle's
	// defaults for the fields it leaves zero.
	retry := &ReconcilePolicy{
		QuarantineAfter:   4,
		RequeueBackoff:    Backoff{Base: 20 * ms, Max: 20 * ms},
		ProbeBackoff:      Backoff{Base: 50 * ms, Max: 50 * ms},
		MaxAssignAttempts: 3,
		Substitute:        true,
		MaxPark:           time.Second,
	}
	for _, tc := range []struct {
		name       string
		roster     []string
		script     map[string][]outcome
		busy       []string // clients still chewing on an earlier round's task
		noise      []delivery
		policy     *ReconcilePolicy
		minClients int
		deadline   time.Duration

		wantErr      string
		participants string
		reassigned   string
		lateDropped  string
		failures     int
		degraded     bool
		elapsed      time.Duration
		probes       string
	}{
		{
			// Null policy: the deadline finds 1 update below the quorum of 2
			// and fails the round at once, stragglers still in flight.
			name:       "deadline below quorum, null policy",
			roster:     []string{"a", "b", "c"},
			script:     map[string][]outcome{"a": ok(10 * ms), "b": ok(500 * ms), "c": ok(500 * ms)},
			minClients: 2, deadline: 100 * ms,
			wantErr: "quorum not met: 1/2", elapsed: 100 * ms,
		},
		{
			// Same round under a reconcile policy: the deadline only stops
			// retries; the gather waits out the stragglers to the quorum and
			// finalizes short of the trigger, degraded.
			name:   "deadline below quorum, reconcile policy",
			roster: []string{"a", "b", "c"},
			script: map[string][]outcome{"a": ok(10 * ms), "b": ok(500 * ms), "c": ok(600 * ms)},
			policy: retry, minClients: 2, deadline: 100 * ms,
			participants: "a,b", degraded: true, elapsed: 500 * ms,
		},
		{
			// a fails twice (retried on itself, then demoted to unreachable);
			// the third attempt goes to d, idle since its straggling update
			// from an earlier round drained in. a's recovery probe answers
			// mid-round, but the round needs no further client by then.
			name:   "requeue then substitute",
			roster: []string{"a", "b", "c", "d"},
			script: map[string][]outcome{
				"a": {{after: 10 * ms, fail: true}, {after: 10 * ms, fail: true}},
				"b": ok(200 * ms), "c": ok(200 * ms), "d": ok(10 * ms),
			},
			busy:   []string{"d"},
			noise:  []delivery{{client: "d", ev: event{kind: evUpdate, round: -1, update: scriptUpdate("d", -1)}}},
			policy: retry, minClients: 3,
			participants: "b,c,d", reassigned: "a>a,a>d", lateDropped: "d", failures: 2, probes: "a", elapsed: 200 * ms,
		},
		{
			// b burns both its attempts and is demoted; the round is starved
			// below its trigger, parks, probes b back in and tasks it.
			name:   "probe revives a parked round",
			roster: []string{"a", "b"},
			script: map[string][]outcome{
				"a": ok(10 * ms),
				"b": {{after: 10 * ms, fail: true}, {after: 10 * ms, fail: true}, {after: 10 * ms}},
			},
			policy:       func() *ReconcilePolicy { p := *retry; p.MaxAssignAttempts = 2; return &p }(),
			minClients:   2,
			participants: "a,b", reassigned: "b>b,probe>b", failures: 2, probes: "b",
			// fail@10, retry@30, fail@40, probe due@90, answered@95, update@105.
			elapsed: 105 * ms,
		},
		{
			// Deliveries from a superseded connection generation reach the
			// engine as no-op events: nothing is recorded, nothing released.
			name:         "stale-generation event ignored",
			roster:       []string{"a", "b"},
			script:       map[string][]outcome{"a": ok(10 * ms), "b": ok(30 * ms)},
			noise:        []delivery{{after: 5 * ms}, {after: 20 * ms}},
			minClients:   2,
			participants: "a,b", elapsed: 30 * ms,
		},
		{
			// Everyone is still busy with an earlier round when this one
			// starts. The null policy has nobody to task and fails; a
			// reconcile policy parks before the scatter until a's straggling
			// update frees it, then runs the round on a.
			name:    "nobody idle, null policy",
			roster:  []string{"a", "b"},
			busy:    []string{"a", "b"},
			wantErr: "no idle clients",
		},
		{
			name:   "nobody idle, reconcile policy parks before the scatter",
			roster: []string{"a", "b"},
			script: map[string][]outcome{"a": ok(10 * ms)},
			busy:   []string{"a", "b"},
			noise:  []delivery{{after: 30 * ms, client: "a", ev: event{kind: evUpdate, round: -1, update: scriptUpdate("a", -1)}}},
			policy: retry, minClients: 1,
			participants: "a", lateDropped: "a", elapsed: 40 * ms,
		},
		{
			// a's connection is replaced mid-task. Under the null policy the
			// task is simply sent again on the new connection.
			name:         "re-attach mid-task, null policy",
			roster:       []string{"a", "b"},
			script:       map[string][]outcome{"a": {{lost: true}, {after: 10 * ms}}, "b": ok(50 * ms)},
			noise:        []delivery{{after: 20 * ms, client: "a", ev: event{kind: evReattach}}},
			minClients:   2,
			participants: "a,b", elapsed: 50 * ms,
		},
		{
			// Under a reconcile policy the lost assignment is a failure that
			// goes through the retry queue like any other.
			name:   "re-attach mid-task, reconcile policy",
			roster: []string{"a", "b"},
			script: map[string][]outcome{"a": {{lost: true}, {after: 10 * ms}}, "b": ok(50 * ms)},
			noise:  []delivery{{after: 20 * ms, client: "a", ev: event{kind: evReattach}}},
			policy: retry, minClients: 2,
			participants: "a,b", reassigned: "a>a", failures: 1, elapsed: 50 * ms,
		},
		{
			// A task that cannot be sent is a failed assignment too.
			name:   "send failure requeued",
			roster: []string{"a", "b"},
			script: map[string][]outcome{"a": {{refuse: true}, {after: 10 * ms}}, "b": ok(10 * ms)},
			policy: retry, minClients: 2,
			participants: "a,b", reassigned: "a>a", failures: 1, elapsed: 30 * ms,
		},
		{
			// A malformed update is its client's failure; under the null
			// policy there is no retry and the round finalizes without it.
			name:         "malformed update rejected",
			roster:       []string{"a", "b"},
			script:       map[string][]outcome{"a": ok(10 * ms), "b": {{after: 20 * ms, malformed: true}}},
			minClients:   1,
			participants: "a", failures: 1, elapsed: 20 * ms,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Unix(1000, 0)
			clk := &scriptClock{now: start}
			be := newScriptBackend(t, clk, tc.roster, tc.script)
			for _, n := range tc.busy {
				be.busy[be.ros.ids[n]] = true
			}
			for _, n := range tc.noise {
				n.ev.id = be.ros.ids[n.client]
				be.schedule(n.after, n.ev)
			}
			eng := newEngine(roundConfig{
				rounds: 1, minClients: tc.minClients, deadline: tc.deadline,
				aggregator: FedAvg{}, clock: clk, reconcile: tc.policy,
			}, be.ros, be)
			res, err := eng.run(context.Background(), scriptWeights(0))
			if got := clk.now.Sub(start); got != tc.elapsed {
				t.Errorf("round settled after %v, want %v", got, tc.elapsed)
			}
			if got := strings.Join(be.probes, ","); got != tc.probes {
				t.Errorf("probes %q, want %q", got, tc.probes)
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			rec := res.History.Rounds[0]
			if got := strings.Join(rec.Participants, ","); got != tc.participants {
				t.Errorf("participants %q, want %q", got, tc.participants)
			}
			if got := strings.Join(rec.Reassigned, ","); got != tc.reassigned {
				t.Errorf("reassigned %q, want %q", got, tc.reassigned)
			}
			if got := strings.Join(rec.LateDropped, ","); got != tc.lateDropped {
				t.Errorf("late dropped %q, want %q", got, tc.lateDropped)
			}
			if len(rec.Failures) != tc.failures {
				t.Errorf("failures %v, want %d", rec.Failures, tc.failures)
			}
			if rec.Degraded != tc.degraded {
				t.Errorf("degraded %v, want %v", rec.Degraded, tc.degraded)
			}
			if (res.Health != nil) != (tc.policy != nil) {
				t.Errorf("health records %v under policy %v", res.Health, tc.policy)
			}
		})
	}
}

// TestRoundEngineRosterOrder pins the engine's orders on a roster whose
// order is not the name order (site-999 comes before site-1000): the sample
// is drawn from the backend's idle order, Participants is sorted by name,
// and a tier sink's shards are contiguous blocks of the name-sorted sample.
func TestRoundEngineRosterOrder(t *testing.T) {
	const seed, fraction, width = 5, 0.5, 4
	var names []string
	script := map[string][]outcome{}
	for i := 990; i < 1010; i++ {
		name := fmt.Sprintf("site-%d", i)
		names = append(names, name)
		script[name] = []outcome{{after: time.Duration(i) * time.Microsecond}}
	}
	clk := &scriptClock{now: time.Unix(1000, 0)}
	be := newScriptBackend(t, clk, names, script)
	eng := newEngine(roundConfig{
		rounds: 1, sampleFraction: fraction, seed: seed, clock: clk,
		tier: &TierConfig{Aggregators: []int{width}},
	}, be.ros, be)
	sk := eng.sink.(*tierSink)
	res, err := eng.run(context.Background(), scriptWeights(0))
	if err != nil {
		t.Fatal(err)
	}
	rec := res.History.Rounds[0]

	// The engine's seeded shuffle of the idle order, cut to the sample size.
	want := slices.Clone(names)
	tensor.NewRNG(seed+7919).Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	want = want[:len(names)/2]
	if !slices.Equal(rec.Sampled, want) {
		t.Errorf("sampled %v, want %v", rec.Sampled, want)
	}
	sorted := slices.Sorted(slices.Values(want))
	if !slices.Equal(rec.Participants, sorted) {
		t.Errorf("participants %v, want the name-sorted sample %v", rec.Participants, sorted)
	}
	// Walking the name-sorted sample, the shard starts at 0, steps up by at
	// most one and ends at the last edge.
	prev := 0
	for i, name := range sorted {
		s := sk.shardOf[be.ros.ids[name]]
		if (i == 0 && s != 0) || s < prev || s > prev+1 {
			t.Fatalf("%s (name rank %d) in shard %d after shard %d: shards are not contiguous name blocks", name, i, s, prev)
		}
		prev = s
	}
	if prev != width-1 {
		t.Errorf("last shard %d, want %d", prev, width-1)
	}
}

// stepClock is a minimal Waiter: Wait runs the one pending AfterFunc
// callback whenever the poll fails, and reports a deadline when nothing is
// pending.
type stepClock struct{ pending func() }

func (c *stepClock) Now() time.Time                       { return time.Time{} }
func (c *stepClock) Since(time.Time) time.Duration        { return 0 }
func (c *stepClock) AfterFunc(_ time.Duration, fn func()) { c.pending = fn }
func (c *stepClock) Wait(poll func() bool, _ time.Time) bool {
	for !poll() {
		fn := c.pending
		if fn == nil {
			return false
		}
		c.pending = nil
		fn()
	}
	return true
}

// TestSourceNextAllocatesNothingPerEvent: on a Waiter clock, waiting for
// and delivering one event through source.next allocates nothing once the
// source has built its poll.
func TestSourceNextAllocatesNothingPerEvent(t *testing.T) {
	clk := &stepClock{}
	ch := make(chan int, 1)
	src := source[int]{clk: clk, ch: ch, normalize: func(id int) event { return event{kind: evUpdate, id: id} }}
	send := func() { ch <- 7 }
	step := func() {
		clk.AfterFunc(0, send)
		if ev, status := src.next(nil, time.Time{}); status != waitOK || ev.kind != evUpdate || ev.id != 7 {
			t.Fatalf("next = (%+v, %v), want client 7's update", ev, status)
		}
	}
	step() // builds the poll once
	if got := testing.AllocsPerRun(1000, step); got != 0 {
		t.Fatalf("source.next allocated %v objects per delivered event, want 0", got)
	}
	// A closed done still cancels, and a wait with nothing pending ends at
	// its deadline.
	done := make(chan struct{})
	close(done)
	if _, status := src.next(done, time.Time{}); status != waitCancelled {
		t.Fatalf("next on a closed done = %v, want waitCancelled", status)
	}
	if _, status := src.next(nil, time.Time{}); status != waitDeadline {
		t.Fatalf("next with nothing pending = %v, want waitDeadline", status)
	}
}

// TestNonFiniteUpdateIsClientFailure: an update holding a NaN is its
// client's named failure, in the flat federation as through a tier, and
// the model averages the other two clients.
func TestNonFiniteUpdateIsClientFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		tier *TierConfig
	}{{"flat", nil}, {"tier", &TierConfig{}}} {
		t.Run(tc.name, func(t *testing.T) {
			execs := []Executor{
				&fakeExecutor{name: "a", samples: 1, value: 1},
				&fakeExecutor{name: "b", samples: 1, value: math.NaN()},
				&fakeExecutor{name: "c", samples: 1, value: 3},
			}
			ctrl, err := NewController(ControllerConfig{Rounds: 1, MinClients: 2, Tier: tc.tier}, execs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ctrl.Run(context.Background(), initialWeights())
			if err != nil {
				t.Fatal(err)
			}
			rec := res.History.Rounds[0]
			if got := strings.Join(rec.Participants, ","); got != "a,c" {
				t.Errorf("participants %q, want a,c", got)
			}
			if len(rec.Failures) != 1 || !strings.HasPrefix(rec.Failures[0], "b: ") ||
				!strings.Contains(rec.Failures[0], "non-finite value") {
				t.Errorf("failures %q, want b's non-finite value", rec.Failures)
			}
			for name, m := range res.FinalWeights {
				for _, v := range m.Data() {
					if v != 2 {
						t.Fatalf("%s holds %v, want the mean of a and c, 2", name, v)
					}
				}
			}
		})
	}
}

// swapParamsExecutor answers with the global's params, except that the
// listed ones come back under other names: the count matches, the names
// do not.
type swapParamsExecutor struct {
	name    string
	renamed []string
}

func (s swapParamsExecutor) Name() string { return s.name }

func (s swapParamsExecutor) ExecuteRound(round int, global map[string]*tensor.Matrix) (*ClientUpdate, error) {
	w := make(map[string]*tensor.Matrix, len(global))
	for name, m := range global {
		if slices.Contains(s.renamed, name) {
			name = "stray." + name
		}
		w[name] = m.Clone()
	}
	return &ClientUpdate{ClientName: s.name, Round: round, Weights: w, NumSamples: 1, TrainLoss: 1}, nil
}

// TestUpdateCheckReportsFirstBadParamByName: an update missing two params
// is reported by the one first in name order, every time, so the round
// record does not depend on map iteration order.
func TestUpdateCheckReportsFirstBadParamByName(t *testing.T) {
	global := map[string]*tensor.Matrix{}
	for _, name := range []string{"p0", "p1", "p2", "p3", "p4", "p5"} {
		global[name] = tensor.New(1, 2)
	}
	const want = `bad: missing param "p1"`
	for run := range 50 {
		execs := []Executor{
			&fakeExecutor{name: "good", samples: 1, value: 1},
			swapParamsExecutor{name: "bad", renamed: []string{"p4", "p1"}},
		}
		ctrl, err := NewController(ControllerConfig{Rounds: 1, MinClients: 1}, execs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ctrl.Run(context.Background(), global)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.History.Rounds[0].Failures; len(got) != 1 || got[0] != want {
			t.Fatalf("run %d: failures %q, want [%s]", run, got, want)
		}
	}
}

// TestRoundRefusesNonFiniteAggregate: a round over finite updates never
// commits a non-finite model. Two updates of MaxFloat64/2 weighted 3 and 1
// used to overflow the tier fold's exact products, while flat FedAvg
// normalized the weights first and committed them. Both paths now refuse
// each update at accept, by name, so they agree. The engine's own guard
// still fails a round whose aggregator returns a non-finite model.
func TestRoundRefusesNonFiniteAggregate(t *testing.T) {
	half := math.MaxFloat64 / 2
	for _, tc := range []struct {
		name string
		tier *TierConfig
		agg  Aggregator
		want []string
	}{
		{"flat", nil, nil, []string{`a: param "layer.b" has a value of magnitude at least 2^980`, `b: param "layer.b"`}},
		{"tier", &TierConfig{}, nil, []string{`a: param "layer.b" has a value of magnitude at least 2^980`, `b: param "layer.b"`}},
		{"aggregator", nil, infAggregator{}, []string{`aggregate param "layer.b" is non-finite`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			value := half
			if tc.agg != nil {
				value = 1
			}
			ctrl, err := NewController(ControllerConfig{Rounds: 1, Tier: tc.tier, Aggregator: tc.agg}, []Executor{
				&fakeExecutor{name: "a", samples: 3, value: value},
				&fakeExecutor{name: "b", samples: 1, value: value},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := ctrl.Run(context.Background(), initialWeights())
			if err == nil {
				t.Fatalf("round committed %v", res.FinalWeights)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("err = %v, want it to contain %q", err, w)
				}
			}
		})
	}
}

// infAggregator returns a model of +Inf, whatever it is given.
type infAggregator struct{}

func (infAggregator) Name() string { return "inf" }

func (infAggregator) Aggregate(updates []*ClientUpdate) (map[string]*tensor.Matrix, error) {
	out := make(map[string]*tensor.Matrix)
	for name, m := range updates[0].Weights {
		w := tensor.New(m.Rows(), m.Cols())
		w.Fill(math.Inf(1))
		out[name] = w
	}
	return out, nil
}
