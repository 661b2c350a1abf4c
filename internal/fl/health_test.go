package fl

import (
	"context"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// settledLadder builds the ladder of p as settle leaves it.
func settledLadder(t *testing.T, p ReconcilePolicy) *ladder {
	t.Helper()
	rc := roundConfig{clients: 1, deadline: time.Second, reconcile: &p}
	if err := rc.settle(); err != nil {
		t.Fatal(err)
	}
	return &ladder{pol: *rc.reconcile}
}

// testRoster interns names in the order given.
func testRoster(names ...string) *roster {
	ros := newRoster(len(names))
	for _, name := range names {
		ros.add(name)
	}
	return ros
}

func TestHealthLadder(t *testing.T) {
	l := settledLadder(t, ReconcilePolicy{})
	for i, want := range []health{suspect, unreachable, unreachable, quarantined} {
		if tr := l.observe(0, false, t0); tr.to != want {
			t.Fatalf("failure %d: health %v, want %v", i+1, tr.to, want)
		}
	}
	if l.eligible(0) {
		t.Fatal("quarantined client still eligible")
	}
	if tr := l.observe(0, true, t0); tr.from != quarantined || tr.to != healthy {
		t.Fatalf("success transition %+v, want quarantined->healthy", tr)
	}
	if !l.eligible(0) {
		t.Fatal("recovered client not eligible")
	}
}

func TestHealthSuccessResetsStreak(t *testing.T) {
	l := settledLadder(t, ReconcilePolicy{})
	l.observe(0, false, t0)
	l.observe(0, true, t0)
	// After a reset the next failure starts a fresh streak: suspect, not
	// deeper.
	if tr := l.observe(0, false, t0); tr.to != suspect {
		t.Fatalf("post-reset failure: %v, want suspect", tr.to)
	}
}

func TestHealthProbeScheduling(t *testing.T) {
	ros := testRoster("c")
	l := settledLadder(t, ReconcilePolicy{ProbeBackoff: Backoff{Base: time.Second}})
	l.observe(0, false, t0)
	if got := l.due(ros, t0.Add(time.Hour)); len(got) != 0 {
		t.Fatalf("suspect client probed: %v", got)
	}
	l.observe(0, false, t0) // -> unreachable, probe due at t0+1s
	if got := l.due(ros, t0); len(got) != 0 {
		t.Fatalf("probe fired before its delay: %v", got)
	}
	if at := l.nextProbeAt(); !at.Equal(t0.Add(time.Second)) {
		t.Fatalf("nextProbeAt %v, want %v", at, t0.Add(time.Second))
	}
	if got := l.due(ros, t0.Add(time.Second)); !slices.Equal(got, []int{0}) {
		t.Fatalf("due probes %v, want [0]", got)
	}
	// An in-flight probe never fires twice.
	if got := l.due(ros, t0.Add(time.Minute)); len(got) != 0 {
		t.Fatalf("probing client re-fired: %v", got)
	}
	// A failed probe backs off: attempt 1 is next due 2s later.
	at := t0.Add(2 * time.Second)
	l.probed(0, false, at)
	if next := l.nextProbeAt(); !next.Equal(at.Add(2 * time.Second)) {
		t.Fatalf("after a failed probe nextProbeAt %v, want %v", next, at.Add(2*time.Second))
	}
	// A successful probe rejoins.
	l.due(ros, at.Add(2*time.Second))
	if tr := l.probed(0, true, at.Add(2*time.Second)); tr.to != healthy {
		t.Fatalf("probe success -> %v, want healthy", tr.to)
	}
	if !l.eligible(0) || l.recovering() {
		t.Fatal("ladder still demoted or probing after the rejoin")
	}
}

// TestHealthProbesDueInNameOrder: probes fall due in the roster's name
// order, not its id order.
func TestHealthProbesDueInNameOrder(t *testing.T) {
	ros := testRoster("zed", "amy", "kim")
	l := settledLadder(t, ReconcilePolicy{})
	for id := range 3 {
		l.quarantine(id)
	}
	if got := l.due(ros, t0); !slices.Equal(got, []int{1, 2, 0}) {
		t.Fatalf("due probes %v, want [1 2 0] (amy, kim, zed)", got)
	}
}

func TestHealthObservationOrderIndependence(t *testing.T) {
	// The same multiset of per-client observations yields the same final
	// states whatever the interleaving across clients.
	run := func(order []int) map[string]string {
		l := settledLadder(t, ReconcilePolicy{})
		for _, id := range order {
			l.observe(id, false, t0)
		}
		return l.snapshot([]string{"x", "y"})
	}
	a := run([]int{0, 0, 1, 0, 1, 0})
	b := run([]int{1, 0, 1, 0, 0, 0})
	if !maps.Equal(a, b) {
		t.Fatalf("snapshots differ: %v vs %v", a, b)
	}
}

func TestHealthQuarantineIsDueAtOnce(t *testing.T) {
	l := settledLadder(t, ReconcilePolicy{})
	l.quarantine(1)
	if l.eligible(1) {
		t.Fatal("seeded quarantined client eligible")
	}
	if got := l.due(testRoster("a", "c"), t0); !slices.Equal(got, []int{1}) {
		t.Fatalf("seeded quarantine not probed at once: %v", got)
	}
	// Only observed clients are tracked.
	if got := l.snapshot([]string{"a", "c"}); !maps.Equal(got, map[string]string{"c": "quarantined"}) {
		t.Fatalf("snapshot %v, want only c quarantined", got)
	}
}

// TestNullLadder: the nil ladder records nothing, keeps everyone eligible
// and never has a probe due or in flight.
func TestNullLadder(t *testing.T) {
	var l *ladder
	if tr := l.observe(0, false, t0); tr.from != tr.to {
		t.Fatalf("null ladder reported edge %+v", tr)
	}
	l.quarantine(0)
	if !l.eligible(0) || l.probing(0) {
		t.Fatal("null ladder demoted a client")
	}
	if due := l.due(testRoster("c"), t0.Add(time.Hour)); due != nil {
		t.Fatalf("null ladder has probes due: %v", due)
	}
	if !l.nextProbeAt().IsZero() || l.recovering() || l.snapshot([]string{"c"}) != nil {
		t.Fatal("null ladder reports probe state")
	}
}

// TestRetriesReleasedInReadyThenInsertionOrder: the gather's retry queue
// releases what is ready in (readyAt, insertion) order, whatever order the
// ready times were added in, and keeps the rest.
func TestRetriesReleasedInReadyThenInsertionOrder(t *testing.T) {
	origins := func(as []assignment) string {
		var out []string
		for _, a := range as {
			out = append(out, a.origin)
		}
		return strings.Join(out, ",")
	}
	g := &gather{retries: []assignment{
		{origin: "late", readyAt: t0.Add(3 * time.Second)},
		{origin: "b", readyAt: t0.Add(time.Second)},
		{origin: "second", readyAt: t0.Add(2 * time.Second)},
		{origin: "a", readyAt: t0.Add(time.Second)},
		{origin: "first", readyAt: t0.Add(time.Second / 2)},
	}}
	if got := g.dueRetries(t0); len(got) != 0 {
		t.Fatalf("nothing should be due at t0: %v", got)
	}
	if got := origins(g.dueRetries(t0.Add(2 * time.Second))); got != "first,b,a,second" {
		t.Fatalf("due order %s, want first,b,a,second", got)
	}
	if got := origins(g.retries); got != "late" {
		t.Fatalf("still queued %s, want late", got)
	}
}

// TestQuarantineAfterIsHonoured: a set QuarantineAfter quarantines after
// exactly that many failures, not after the default ladder's four.
func TestQuarantineAfterIsHonoured(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		quarantineAfter, rounds, failures int
		want                              string
	}{
		{1, 1, 1, "quarantined"},
		{1, 2, 1, "quarantined"}, // out of the pool: never tasked again
		{2, 1, 1, "suspect"},
		{2, 2, 2, "quarantined"},
	} {
		clk := &scriptClock{now: t0}
		be := newScriptBackend(t, clk, []string{"ok", "bad"}, map[string][]outcome{
			"ok":  {{after: 10 * ms}, {after: 10 * ms}},
			"bad": {{after: 10 * ms, fail: true}, {after: 10 * ms, fail: true}},
		})
		rc := roundConfig{
			clients: 2, rounds: tc.rounds, deadline: 100 * ms, clock: clk,
			reconcile: &ReconcilePolicy{
				QuarantineAfter:   tc.quarantineAfter,
				MaxAssignAttempts: 1,
				ProbeBackoff:      Backoff{Base: time.Hour, Max: time.Hour},
			},
		}
		if err := rc.settle(); err != nil {
			t.Fatal(err)
		}
		res, err := newEngine(rc, be.ros, be).run(context.Background(), scriptWeights(0))
		if err != nil {
			t.Fatal(err)
		}
		failures := 0
		for _, rec := range res.History.Rounds {
			failures += len(rec.Failures)
		}
		if failures != tc.failures || res.Health["bad"] != tc.want {
			t.Errorf("QuarantineAfter %d over %d rounds: %d failures, bad %q; want %d, %q",
				tc.quarantineAfter, tc.rounds, failures, res.Health["bad"], tc.failures, tc.want)
		}
	}
}

// TestSettleFillsTheLadder pins the ladder settle derives from
// QuarantineAfter alone: the failure streak at which a client turns
// suspect, unreachable and quarantined. It also pins that settle leaves
// the caller's policy as it was.
func TestSettleFillsTheLadder(t *testing.T) {
	for _, tc := range []struct {
		quarantineAfter int
		want            [3]int // suspect, unreachable, quarantined
	}{
		{0, [3]int{1, 2, 4}},
		{1, [3]int{1, 1, 1}},
		{2, [3]int{1, 2, 2}},
		{7, [3]int{1, 2, 7}},
	} {
		p := &ReconcilePolicy{QuarantineAfter: tc.quarantineAfter}
		rc := roundConfig{clients: 1, deadline: time.Second, reconcile: p}
		if err := rc.settle(); err != nil {
			t.Fatalf("QuarantineAfter %d: %v", tc.quarantineAfter, err)
		}
		s := rc.reconcile
		if s.MaxAssignAttempts != 3 || s.MaxPark != 30*time.Second {
			t.Errorf("QuarantineAfter %d: MaxAssignAttempts %d, MaxPark %v; want the defaults 3, 30s", tc.quarantineAfter, s.MaxAssignAttempts, s.MaxPark)
		}
		if *p != (ReconcilePolicy{QuarantineAfter: tc.quarantineAfter}) {
			t.Errorf("QuarantineAfter %d: settle wrote through the caller's policy: %+v", tc.quarantineAfter, *p)
		}
		// The streak at which each rung is first reached.
		var got [3]int
		l := &ladder{pol: *s}
		for streak := 1; got[2] == 0 && streak <= 10; streak++ {
			h := l.observe(0, false, time.Unix(0, 0)).to
			for i, rung := range []health{suspect, unreachable, quarantined} {
				if h >= rung && got[i] == 0 {
					got[i] = streak
				}
			}
		}
		if got != tc.want {
			t.Errorf("QuarantineAfter %d settles to the ladder %v, want %v", tc.quarantineAfter, got, tc.want)
		}
	}
}
