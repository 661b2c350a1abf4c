package reconcile

import (
	"reflect"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestDemotionLadder(t *testing.T) {
	m := NewMonitor(Config{SuspectAfter: 1, UnreachableAfter: 2, QuarantineAfter: 4})
	want := []Health{Suspect, Unreachable, Unreachable, Quarantined}
	for i, w := range want {
		tr := m.Observe("c", false, t0)
		if tr.To != w {
			t.Fatalf("failure %d: health %v, want %v", i+1, tr.To, w)
		}
	}
	if m.Eligible("c") {
		t.Fatal("quarantined client still eligible")
	}
	if tr := m.Observe("c", true, t0); tr.To != Healthy || tr.From != Quarantined {
		t.Fatalf("success transition %+v, want Quarantined->Healthy", tr)
	}
	if !m.Eligible("c") {
		t.Fatal("recovered client not eligible")
	}
}

func TestSuccessResetsStreak(t *testing.T) {
	m := NewMonitor(Config{})
	m.Observe("c", false, t0)
	m.Observe("c", true, t0)
	// After a reset the next failure starts a fresh streak: Suspect, not
	// deeper.
	if tr := m.Observe("c", false, t0); tr.To != Suspect {
		t.Fatalf("post-reset failure: %v, want Suspect", tr.To)
	}
}

func TestProbeScheduling(t *testing.T) {
	delay := func(attempt int) time.Duration { return time.Duration(attempt+1) * time.Second }
	m := NewMonitor(Config{UnreachableAfter: 2, ProbeDelay: delay})
	m.Observe("c", false, t0)
	if got := m.DueProbes(t0.Add(time.Hour)); len(got) != 0 {
		t.Fatalf("suspect client probed: %v", got)
	}
	m.Observe("c", false, t0) // -> Unreachable, probe due at t0+1s
	if got := m.DueProbes(t0); len(got) != 0 {
		t.Fatalf("probe fired before its delay: %v", got)
	}
	if at := m.NextProbeAt(); !at.Equal(t0.Add(time.Second)) {
		t.Fatalf("NextProbeAt %v, want %v", at, t0.Add(time.Second))
	}
	got := m.DueProbes(t0.Add(time.Second))
	if !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("due probes %v, want [c]", got)
	}
	// In-flight probe never double-fires.
	if got := m.DueProbes(t0.Add(time.Minute)); len(got) != 0 {
		t.Fatalf("probing client re-fired: %v", got)
	}
	// Failed probe backs off: attempt 1 -> next due 2s later.
	at := t0.Add(2 * time.Second)
	m.ProbeResult("c", false, at)
	if next := m.NextProbeAt(); !next.Equal(at.Add(2 * time.Second)) {
		t.Fatalf("after failed probe NextProbeAt %v, want %v", next, at.Add(2*time.Second))
	}
	// Successful probe rejoins.
	m.DueProbes(at.Add(2 * time.Second))
	if tr := m.ProbeResult("c", true, at.Add(2*time.Second)); tr.To != Healthy {
		t.Fatalf("probe success -> %v, want Healthy", tr.To)
	}
	if m.Demoted() || m.Probing() {
		t.Fatal("monitor still demoted/probing after rejoin")
	}
}

func TestObservationOrderIndependence(t *testing.T) {
	// The same multiset of per-client observations yields the same final
	// states regardless of interleaving across clients.
	run := func(order []string) map[string]string {
		m := NewMonitor(Config{})
		for _, name := range order {
			m.Observe(name, false, t0)
		}
		return m.Snapshot()
	}
	a := run([]string{"x", "x", "y", "x", "y", "x"})
	b := run([]string{"y", "x", "y", "x", "x", "x"})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ: %v vs %v", a, b)
	}
}

func TestSetQuarantinedSeedsDurableState(t *testing.T) {
	m := NewMonitor(Config{})
	m.SetQuarantined("c")
	if m.Eligible("c") {
		t.Fatal("seeded quarantined client eligible")
	}
	if got := m.DueProbes(t0); !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("seeded quarantine not immediately probeable: %v", got)
	}
	if got := m.Counts()[Quarantined]; got != 1 {
		t.Fatalf("Counts()[Quarantined] = %d, want 1", got)
	}
}

func TestParseHealthRoundTrip(t *testing.T) {
	for _, h := range States() {
		if got := ParseHealth(h.String()); got != h {
			t.Fatalf("ParseHealth(%q) = %v, want %v", h.String(), got, h)
		}
	}
	if got := ParseHealth("garbage"); got != Unknown {
		t.Fatalf("ParseHealth(garbage) = %v, want Unknown", got)
	}
}

func TestQueueOrderAndDrain(t *testing.T) {
	q := NewQueue()
	q.Add(Task{Client: "late", Round: 1}, t0.Add(3*time.Second))
	q.Add(Task{Client: "b", Round: 1}, t0.Add(time.Second))
	q.Add(Task{Client: "a", Round: 1}, t0.Add(time.Second))
	if got := q.Due(t0); len(got) != 0 {
		t.Fatalf("nothing should be due at t0: %v", got)
	}
	if at := q.NextAt(); !at.Equal(t0.Add(time.Second)) {
		t.Fatalf("NextAt %v, want %v", at, t0.Add(time.Second))
	}
	due := q.Due(t0.Add(time.Second))
	if len(due) != 2 || due[0].Client != "b" || due[1].Client != "a" {
		t.Fatalf("due order %v, want [b a] (insertion order at equal readyAt)", due)
	}
	if q.Len() != 1 {
		t.Fatalf("Len %d, want 1", q.Len())
	}
	rest := q.Drain()
	if len(rest) != 1 || rest[0].Client != "late" {
		t.Fatalf("Drain %v, want [late]", rest)
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after Drain: %d", q.Len())
	}
	if !q.NextAt().IsZero() {
		t.Fatal("NextAt nonzero on empty queue")
	}
}

func TestQueueMixedReadyTimesPopEarliestFirst(t *testing.T) {
	q := NewQueue()
	q.Add(Task{Client: "second"}, t0.Add(2*time.Second))
	q.Add(Task{Client: "first"}, t0.Add(time.Second))
	due := q.Due(t0.Add(5 * time.Second))
	if len(due) != 2 || due[0].Client != "first" || due[1].Client != "second" {
		t.Fatalf("due order %v, want [first second]", due)
	}
}

// TestNullMonitor: the nil monitor records nothing, keeps everyone
// eligible and never has a probe due or in flight.
func TestNullMonitor(t *testing.T) {
	var m *Monitor
	m.Observe("c", false, t0)
	m.SetQuarantined("c")
	if !m.Eligible("c") || m.Health("c") != Unknown || m.Demoted() {
		t.Fatal("null monitor demoted a client")
	}
	if due := m.DueProbes(t0.Add(time.Hour)); due != nil {
		t.Fatalf("null monitor has probes due: %v", due)
	}
	if !m.NextProbeAt().IsZero() || m.Probing() || m.IsProbing("c") || m.Snapshot() != nil {
		t.Fatal("null monitor reports probe state")
	}
}
