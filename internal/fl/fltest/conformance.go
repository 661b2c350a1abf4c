package fltest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"clinfl/internal/fl"
	"clinfl/internal/sim"
)

// RunConformance asserts the shared federation invariants against one
// harness. Every invariant holds on every deployment shape; assertions
// that depend on exact timing run only when the harness is deterministic.
func RunConformance(t *testing.T, h Harness) {
	t.Run("FedAvgExact", func(t *testing.T) { conformFedAvgExact(t, h) })
	t.Run("ArrivalOrderIrrelevant", func(t *testing.T) { conformArrivalOrder(t, h) })
	t.Run("StragglerNeverAggregatedInRound", func(t *testing.T) { conformStraggler(t, h) })
	t.Run("QuorumBelowErrors", func(t *testing.T) { conformQuorum(t, h) })
	t.Run("FailedClientRecorded", func(t *testing.T) { conformFailureRecorded(t, h) })
	t.Run("MalformedUpdateIsClientFailure", func(t *testing.T) { conformMalformedUpdate(t, h) })
	t.Run("FiniteUpdatesCommitFiniteModel", func(t *testing.T) { conformFiniteCommit(t, h) })
	t.Run("ReassignedTaskSingleUpdate", func(t *testing.T) { conformReassignedSingleUpdate(t, h) })
	t.Run("FlapNeverBlocksFinalize", func(t *testing.T) { conformFlapNeverBlocks(t, h) })
	t.Run("HealthDemotionOrderIndependent", func(t *testing.T) { conformHealthOrderIndependent(t, h) })
	t.Run("CodecBytesAccounted", func(t *testing.T) { conformCodecBytes(t, h) })
	t.Run("TierMatchesFlatFedAvg", func(t *testing.T) { conformTierMatchesFlat(t, h) })
	t.Run("LinearConvergence", func(t *testing.T) { conformConvergence(t, h) })
	if h.Deterministic() {
		t.Run("BitIdenticalReplay", func(t *testing.T) { conformBitIdentical(t, h) })
	}
}

// checkRecords asserts structural History invariants every run must keep:
// participants are a sorted subset of the sampled set, never duplicated,
// and never double-counted as late; failures carry the client name.
func checkRecords(t *testing.T, res *fl.Result) {
	t.Helper()
	for _, rec := range res.History.Rounds {
		sampled := map[string]bool{}
		for _, s := range rec.Sampled {
			sampled[s] = true
		}
		seen := map[string]bool{}
		for _, p := range rec.Participants {
			if seen[p] {
				t.Fatalf("round %d: participant %s duplicated", rec.Round, p)
			}
			seen[p] = true
			if !sampled[p] {
				t.Fatalf("round %d: participant %s was never sampled", rec.Round, p)
			}
		}
		if !sort.StringsAreSorted(rec.Participants) {
			t.Fatalf("round %d: participants %v not in canonical order", rec.Round, rec.Participants)
		}
		for _, l := range append(append([]string{}, rec.LateApplied...), rec.LateDropped...) {
			if seen[l] {
				t.Fatalf("round %d: client %s is both participant and late", rec.Round, l)
			}
		}
		for _, f := range rec.Failures {
			if !strings.Contains(f, ":") {
				t.Fatalf("round %d: failure %q carries no client name", rec.Round, f)
			}
		}
		if rec.BytesUp < 0 || rec.BytesDown < 0 {
			t.Fatalf("round %d: negative byte counters: up=%d down=%d", rec.Round, rec.BytesUp, rec.BytesDown)
		}
	}
}

// conformFedAvgExact: full participation, canned values — the final model
// is the exact sample-weighted average, every round.
func conformFedAvgExact(t *testing.T, h Harness) {
	spec := RunSpec{
		Rounds: 2,
		Clients: []ClientSpec{
			{Name: "a", Samples: 10, Value: 1},
			{Name: "b", Samples: 30, Value: 2},
			{Name: "c", Samples: 20, Value: 7},
		},
	}
	res, err := h.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res)
	want := ExpectedFedAvg(spec.Clients) // (10 + 60 + 140) / 60 = 3.5
	for name, m := range res.FinalWeights {
		for _, v := range m.Data() {
			if v != want {
				t.Fatalf("final %s = %v, want exact %v", name, v, want)
			}
		}
	}
	for _, rec := range res.History.Rounds {
		if len(rec.Participants) != 3 {
			t.Fatalf("round %d participants %v, want all 3", rec.Round, rec.Participants)
		}
	}
}

// conformArrivalOrder: permuting the client roster (and with it arrival
// order) never changes the aggregated model — aggregation is canonically
// ordered before any floating-point accumulation.
func conformArrivalOrder(t *testing.T, h Harness) {
	clients := []ClientSpec{
		{Name: "a", Samples: 7, Value: 0.3, Delay: 30 * time.Millisecond},
		{Name: "b", Samples: 13, Value: -1.7},
		{Name: "c", Samples: 29, Value: 2.9, Delay: 10 * time.Millisecond},
		{Name: "d", Samples: 5, Value: 0.01, Delay: 20 * time.Millisecond},
	}
	permuted := []ClientSpec{clients[2], clients[0], clients[3], clients[1]}
	permuted[0].Delay, permuted[1].Delay, permuted[2].Delay, permuted[3].Delay =
		40*time.Millisecond, 0, 5*time.Millisecond, 25*time.Millisecond

	run := func(cs []ClientSpec) map[string]float64 {
		res, err := h.Run(RunSpec{Rounds: 2, Clients: cs})
		if err != nil {
			t.Fatal(err)
		}
		checkRecords(t, res)
		out := map[string]float64{}
		for name, m := range res.FinalWeights {
			out[name] = m.Data()[0]
		}
		return out
	}
	base, perm := run(clients), run(permuted)
	for name, v := range base {
		if perm[name] != v {
			t.Fatalf("param %s: %v (roster order) != %v (permuted order)", name, v, perm[name])
		}
	}
}

// conformStraggler: one client delayed past the round deadline never
// aggregates in-round, and the federation never blocks on it.
func conformStraggler(t *testing.T, h Harness) {
	spec := RunSpec{
		Rounds: 4, MinUpdates: 3,
		RoundDeadline: 250 * time.Millisecond,
		Clients: []ClientSpec{
			{Name: "a", Samples: 10, Value: 1, Delay: 150 * time.Millisecond},
			{Name: "b", Samples: 10, Value: 1, Delay: 150 * time.Millisecond},
			{Name: "c", Samples: 10, Value: 1, Delay: 150 * time.Millisecond},
			{Name: "slow", Samples: 10, Value: 9, Delay: 500 * time.Millisecond},
		},
	}
	start := time.Now()
	res, err := h.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if real := time.Since(start); real > 10*time.Second {
		t.Fatalf("federation blocked on straggler: %v", real)
	}
	checkRecords(t, res)
	if len(res.History.Rounds) != 4 {
		t.Fatalf("completed %d rounds, want 4", len(res.History.Rounds))
	}
	for _, rec := range res.History.Rounds {
		for _, p := range rec.Participants {
			if p == "slow" {
				t.Fatalf("round %d aggregated the straggler in-round", rec.Round)
			}
		}
	}
	if got := res.FinalWeights["layer.w"].Data()[0]; got != 1 {
		t.Fatalf("straggler's value leaked into the model: %v", got)
	}
	if h.Deterministic() {
		// Exact timing: the straggler finishes its round-0 task at 500ms,
		// inside round 3's gather window, and with no async aggregator its
		// late update must be recorded as dropped there.
		var dropped []string
		for _, rec := range res.History.Rounds {
			dropped = append(dropped, rec.LateDropped...)
		}
		if len(dropped) != 1 || dropped[0] != "slow" {
			t.Fatalf("late drops %v, want exactly [slow]", dropped)
		}
	}
}

// conformQuorum: losing stragglers below the configured quorum always
// fails the run — a deadline round must never publish a sub-quorum model.
func conformQuorum(t *testing.T, h Harness) {
	_, err := h.Run(RunSpec{
		Rounds: 1, MinClients: 2,
		RoundDeadline: 200 * time.Millisecond,
		Clients: []ClientSpec{
			{Name: "a", Samples: 10, Value: 1},
			{Name: "slow1", Samples: 10, Value: 2, Delay: 700 * time.Millisecond},
			{Name: "slow2", Samples: 10, Value: 3, Delay: 700 * time.Millisecond},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("want quorum error with 1/2 updates, got %v", err)
	}
}

// names reports whether a failure entry is about client: "client: reason" in
// the record of the node that saw it fail, "<edge>/client: reason" above it.
func names(failure, client string) bool {
	return strings.HasPrefix(failure, client+":") || strings.Contains(failure, "/"+client+":")
}

// conformFailureRecorded: a failing client is a named failure in the round
// record, never a silent absence, and never a participant.
func conformFailureRecorded(t *testing.T, h Harness) {
	res, err := h.Run(RunSpec{
		Rounds: 1,
		Clients: []ClientSpec{
			{Name: "ok", Samples: 10, Value: 2},
			{Name: "broken", Samples: 10, Value: 5, FailRounds: []int{0}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res)
	rec := res.History.Rounds[0]
	if len(rec.Participants) != 1 || rec.Participants[0] != "ok" {
		t.Fatalf("participants %v, want [ok]", rec.Participants)
	}
	found := false
	for _, f := range rec.Failures {
		if strings.HasPrefix(f, "broken:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("broken client missing from failures: %v", rec.Failures)
	}
	if got := res.FinalWeights["layer.w"].Data()[0]; got != 2 {
		t.Fatalf("failed client leaked into the model: %v", got)
	}

	// The same holds of a leaf behind an edge (a real fl.Edge on the server
	// harness, sharing it with a healthy leaf): the failure climbs to the
	// root's record instead of vanishing into the edge's partial.
	t.Run("behind-edge", func(t *testing.T) {
		res, err := h.Run(RunSpec{
			Rounds: 1, Tier: []int{2},
			Clients: []ClientSpec{
				{Name: "ok", Samples: 10, Value: 2},
				{Name: "ok2", Samples: 30, Value: 2},
				{Name: "broken", Samples: 10, Value: 5, FailRounds: []int{0}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		checkRecords(t, res)
		found := 0
		for _, f := range res.History.Rounds[0].Failures {
			if names(f, "broken") {
				found++
			}
		}
		if found != 1 {
			t.Fatalf("failures %v, want exactly one naming the broken leaf", res.History.Rounds[0].Failures)
		}
		if got := res.FinalWeights["layer.w"].Data()[0]; got != 2 {
			t.Fatalf("failed leaf leaked into the model: %v", got)
		}
	})
}

// conformMalformedUpdate: an update the aggregate could not use — no
// samples, a parameter of the wrong shape, a parameter the model does not
// have — is that one client's failure, every round it misbehaves. It is
// never a participant, and each round finalizes to the exact FedAvg of the
// remaining clients instead of aborting the federation.
func conformMalformedUpdate(t *testing.T, h Harness) {
	for _, mode := range []string{"zero-samples", "wrong-shape", "extra-param"} {
		for _, tier := range [][]int{nil, {2}} {
			t.Run(fmt.Sprintf("%s/tier%v", mode, tier), func(t *testing.T) {
				good := []ClientSpec{
					{Name: "a", Samples: 10, Value: 1},
					{Name: "b", Samples: 30, Value: 2},
					{Name: "c", Samples: 20, Value: 7},
				}
				spec := RunSpec{
					Rounds: 3, Tier: tier,
					Clients: append([]ClientSpec{{Name: "bad", Samples: 40, Value: 100, Malformed: mode}}, good...),
				}
				res, err := h.Run(spec)
				if err != nil {
					t.Fatalf("one malformed client aborted the federation: %v", err)
				}
				checkRecords(t, res)
				if len(res.History.Rounds) != spec.Rounds {
					t.Fatalf("completed %d rounds, want %d", len(res.History.Rounds), spec.Rounds)
				}
				for _, rec := range res.History.Rounds {
					// Everyone sampled but bad participates: a, b and c, or —
					// behind real edges — the edges they sit behind.
					var want []string
					for _, s := range rec.Sampled {
						if s != "bad" {
							want = append(want, s)
						}
					}
					sort.Strings(want)
					if got := strings.Join(rec.Participants, ","); got != strings.Join(want, ",") || tier == nil && got != "a,b,c" {
						t.Fatalf("round %d participants %v, want exactly %v", rec.Round, rec.Participants, want)
					}
					named := 0
					for _, f := range rec.Failures {
						if names(f, "bad") {
							named++
						}
					}
					if named != 1 {
						t.Fatalf("round %d failures %v, want exactly one naming bad", rec.Round, rec.Failures)
					}
				}
				want := ExpectedFedAvg(good)
				for name, m := range res.FinalWeights {
					for _, v := range m.Data() {
						if v != want {
							t.Fatalf("final %s = %v, want exact %v over the well-formed clients", name, v, want)
						}
					}
				}
			})
		}
	}
}

// conformFiniteCommit: updates that are each finite never commit a
// non-finite model. Every client sends values just below the accept step's
// 2^980 bound with a sample count just below its 2^21 bound, the largest
// weighted sums an admitted update can produce, flat and behind a tier.
// Each round commits a finite model or refuses a client by name; none
// aborts the run.
func conformFiniteCommit(t *testing.T, h Harness) {
	big := math.Nextafter(math.Ldexp(1, 980), 0)
	for _, tier := range [][]int{nil, {2}} {
		t.Run(fmt.Sprintf("tier%v", tier), func(t *testing.T) {
			spec := RunSpec{Rounds: 2, Tier: tier}
			for i, name := range []string{"a", "b", "c", "d"} {
				spec.Clients = append(spec.Clients, ClientSpec{Name: name, Samples: 1<<21 - 1 - i, Value: big})
			}
			res, err := h.Run(spec)
			if err != nil {
				t.Fatalf("finite updates aborted the federation: %v", err)
			}
			checkRecords(t, res)
			if len(res.History.Rounds) != spec.Rounds {
				t.Fatalf("completed %d rounds, want %d", len(res.History.Rounds), spec.Rounds)
			}
			for _, rec := range res.History.Rounds {
				if len(rec.Participants) == 0 && len(rec.Failures) == 0 {
					t.Fatalf("round %d committed nothing and refused no client", rec.Round)
				}
			}
			for name, m := range res.FinalWeights {
				for _, v := range m.Data() {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("final %s = %v from finite updates", name, v)
					}
				}
			}
		})
	}
}

// conformReassignedSingleUpdate: under a ReconcilePolicy, a client whose
// first execution attempt fails is re-tasked and contributes exactly one
// applied update — the round's aggregate is the same exact FedAvg a clean
// run produces, with the flake recorded as a failure and a reassignment.
func conformReassignedSingleUpdate(t *testing.T, h Harness) {
	spec := RunSpec{
		Rounds:        1,
		RoundDeadline: 2 * time.Second,
		Reconcile: &fl.ReconcilePolicy{
			RequeueBackoff: fl.Backoff{Base: 20 * time.Millisecond, Max: 100 * time.Millisecond},
			ProbeBackoff:   fl.Backoff{Base: time.Hour, Max: time.Hour},
		},
		Clients: []ClientSpec{
			{Name: "a", Samples: 10, Value: 1, FlakyRounds: []int{0}},
			{Name: "b", Samples: 30, Value: 2},
			{Name: "c", Samples: 20, Value: 7},
		},
	}
	res, err := h.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res)
	rec := res.History.Rounds[0]
	if got := strings.Join(rec.Participants, ","); got != "a,b,c" {
		t.Fatalf("participants %v, want exactly [a b c]", rec.Participants)
	}
	var aFailures int
	for _, f := range rec.Failures {
		if strings.HasPrefix(f, "a:") {
			aFailures++
		}
	}
	if aFailures != 1 {
		t.Fatalf("failures %v, want exactly one for the flaky first attempt", rec.Failures)
	}
	if len(rec.Reassigned) != 1 || rec.Reassigned[0] != "a>a" {
		t.Fatalf("reassignments %v, want exactly [a>a]", rec.Reassigned)
	}
	want := ExpectedFedAvg(spec.Clients)
	for name, m := range res.FinalWeights {
		for _, v := range m.Data() {
			if v != want {
				t.Fatalf("final %s = %v, want exact %v (retry double-counted?)", name, v, want)
			}
		}
	}
}

// conformFlapNeverBlocks: a client that flaps (fails every attempt for
// two rounds, then recovers) is demoted out of the pool and probed back
// in — every round finalizes, nothing deadlocks, and the flapping client
// participates again after its probes succeed.
func conformFlapNeverBlocks(t *testing.T, h Harness) {
	spec := RunSpec{
		Rounds:        6,
		RoundDeadline: 400 * time.Millisecond,
		Reconcile: &fl.ReconcilePolicy{
			RequeueBackoff: fl.Backoff{Base: 25 * time.Millisecond, Max: 100 * time.Millisecond},
			ProbeBackoff:   fl.Backoff{Base: 20 * time.Millisecond, Max: 50 * time.Millisecond},
			Substitute:     true,
			MaxPark:        2 * time.Second,
		},
		Clients: []ClientSpec{
			{Name: "a", Samples: 10, Value: 1, Delay: 10 * time.Millisecond},
			{Name: "b", Samples: 10, Value: 1, Delay: 15 * time.Millisecond},
			{Name: "c", Samples: 10, Value: 1, Delay: 20 * time.Millisecond},
			{Name: "flappy", Samples: 10, Value: 1, Delay: 10 * time.Millisecond, FailRounds: []int{1, 2}},
		},
	}
	start := time.Now()
	res, err := h.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if real := time.Since(start); real > 20*time.Second {
		t.Fatalf("federation blocked on the flapping client: %v", real)
	}
	checkRecords(t, res)
	if len(res.History.Rounds) != 6 {
		t.Fatalf("completed %d rounds, want 6", len(res.History.Rounds))
	}
	rejoined := false
	for _, rec := range res.History.Rounds[3:] {
		for _, p := range rec.Participants {
			if p == "flappy" {
				rejoined = true
			}
		}
	}
	if !rejoined {
		t.Fatalf("flappy never rejoined after recovery (health %v, rounds %+v)", res.Health, res.History.Rounds)
	}
}

// conformHealthOrderIndependent: final health states are a function of
// each client's observation sequence, not of roster order or arrival
// timing — permuting both leaves Result.Health unchanged.
func conformHealthOrderIndependent(t *testing.T, h Harness) {
	policy := func() *fl.ReconcilePolicy {
		return &fl.ReconcilePolicy{
			RequeueBackoff: fl.Backoff{Base: 20 * time.Millisecond, Max: 50 * time.Millisecond},
			// Probes far beyond the run: demotions must stick so the final
			// states are timing-free.
			ProbeBackoff: fl.Backoff{Base: time.Hour, Max: time.Hour},
			MaxPark:      300 * time.Millisecond,
		}
	}
	clients := []ClientSpec{
		{Name: "dead", Samples: 10, Value: 1, FailRounds: []int{0, 1}},
		{Name: "ok", Samples: 20, Value: 2},
		{Name: "flaky", Samples: 30, Value: 3, FlakyRounds: []int{0}, Delay: 10 * time.Millisecond},
	}
	permuted := []ClientSpec{clients[2], clients[0], clients[1]}
	permuted[0].Delay, permuted[1].Delay, permuted[2].Delay =
		0, 25*time.Millisecond, 15*time.Millisecond

	want := map[string]string{"dead": "unreachable", "ok": "healthy", "flaky": "healthy"}
	for i, cs := range [][]ClientSpec{clients, permuted} {
		res, err := h.Run(RunSpec{
			Rounds:        2,
			RoundDeadline: 2 * time.Second,
			Reconcile:     policy(),
			Clients:       cs,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkRecords(t, res)
		if len(res.Health) != len(want) {
			t.Fatalf("roster %d: health %v, want %v", i, res.Health, want)
		}
		for name, state := range want {
			if res.Health[name] != state {
				t.Fatalf("roster %d: health[%s] = %q, want %q (full: %v)", i, name, res.Health[name], state, res.Health)
			}
		}
	}
}

// conformCodecBytes: with a lossy-free compressed uplink codec, every
// round's record carries byte counters and f32 cuts payloads well below
// raw.
func conformCodecBytes(t *testing.T, h Harness) {
	run := func(codec string) int64 {
		clients := []ClientSpec{
			{Name: "a", Samples: 10, Value: 1, Codec: codec},
			{Name: "b", Samples: 10, Value: 2, Codec: codec},
		}
		res, err := h.Run(RunSpec{Rounds: 2, Clients: clients})
		if err != nil {
			t.Fatal(err)
		}
		checkRecords(t, res)
		var total int64
		for _, rec := range res.History.Rounds {
			if rec.BytesUp <= 0 {
				t.Fatalf("[%s] round %d BytesUp unrecorded", codec, rec.Round)
			}
			total += rec.BytesUp
		}
		return total
	}
	raw, f32 := run("raw"), run("f32")
	if float64(f32) > 0.7*float64(raw) {
		t.Fatalf("f32 uplink %d bytes, want well below raw %d", f32, raw)
	}
}

// conformTierMatchesFlat: hierarchical streaming aggregation produces the
// same global model as the flat deployment, bit for bit, for any tier
// shape. The spec is dyadic (sample counts summing to a power of two,
// small-significand values) so the flat float path is itself exact and
// the comparison is against a well-defined value; the hier package pins
// the stronger arbitrary-input tree-shape identity separately.
func conformTierMatchesFlat(t *testing.T, h Harness) {
	clients := []ClientSpec{
		{Name: "a", Samples: 8, Value: 1.5},
		{Name: "b", Samples: 16, Value: -2.25},
		{Name: "c", Samples: 24, Value: 0.125},
		{Name: "d", Samples: 16, Value: 3},
	}
	base := RunSpec{Rounds: 2, Clients: clients}
	flat, err := h.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, flat)
	for _, tier := range [][]int{{2}, {3, 2}} {
		spec := base
		spec.Tier = tier
		res, err := h.Run(spec)
		if err != nil {
			t.Fatalf("tier %v: %v", tier, err)
		}
		checkRecords(t, res)
		for name, fm := range flat.FinalWeights {
			tm := res.FinalWeights[name]
			if tm == nil {
				t.Fatalf("tier %v: param %q missing", tier, name)
			}
			for i, fv := range fm.Data() {
				if math.Float64bits(fv) != math.Float64bits(tm.Data()[i]) {
					t.Fatalf("tier %v: %s[%d] = %v, flat = %v (not bit-identical)",
						tier, name, i, tm.Data()[i], fv)
				}
			}
		}
		for _, rec := range res.History.Rounds {
			if rec.TierResidentBytes <= 0 || rec.TierPartials <= 0 {
				t.Fatalf("tier %v round %d: tier accounting missing (partials=%d resident=%d)",
					tier, rec.Round, rec.TierPartials, rec.TierResidentBytes)
			}
		}
	}
	for _, rec := range flat.History.Rounds {
		if rec.TierPartials != 0 || rec.TierBytesUp != 0 || rec.TierResidentBytes != 0 {
			t.Fatalf("flat round %d unexpectedly carries tier accounting", rec.Round)
		}
	}
}

// conformConvergence: FedAvg (and FedAsync when late merging is on) on
// sharded linear regression converges to near the ground truth.
func conformConvergence(t *testing.T, h Harness) {
	for _, mode := range []struct {
		name  string
		alpha float64
	}{{"fedavg", 0}, {"fedasync", 0.5}} {
		t.Run(mode.name, func(t *testing.T) {
			lin := &LinearSpec{Seed: 11}
			spec := RunSpec{
				Rounds: 14, FedAsyncAlpha: mode.alpha,
				Linear: lin,
				Clients: []ClientSpec{
					{Name: "a"}, {Name: "b"}, {Name: "c"},
					{Name: "d"}, {Name: "e"}, {Name: "f"},
				},
			}
			res, err := h.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			checkRecords(t, res)
			// Same task seed → same population; score the trained model on
			// its noise-free holdout.
			pop := sim.NewPopulation(lin.Seed, len(spec.Clients))
			initialMSE, err := pop.Eval(sim.InitialLinearWeights(sim.LinearDim))
			if err != nil {
				t.Fatal(err)
			}
			finalMSE, err := pop.Eval(res.FinalWeights)
			if err != nil {
				t.Fatal(err)
			}
			if finalMSE >= initialMSE/10 {
				t.Fatalf("%s did not converge: MSE %v -> %v", mode.name, initialMSE, finalMSE)
			}
		})
	}
}

// conformBitIdentical: a deterministic harness reproduces History JSON
// byte-for-byte for a fixed spec — stragglers, deadline, async merging,
// sampling and codecs all included.
func conformBitIdentical(t *testing.T, h Harness) {
	spec := RunSpec{
		Rounds: 5, MinUpdates: 3,
		RoundDeadline:  300 * time.Millisecond,
		SampleFraction: 0.8,
		FedAsyncAlpha:  0.5,
		Seed:           17,
		Clients: []ClientSpec{
			{Name: "a", Samples: 10, Value: 1, Delay: 100 * time.Millisecond, Codec: "raw"},
			{Name: "b", Samples: 20, Value: 2, Delay: 150 * time.Millisecond, Codec: "f32"},
			{Name: "c", Samples: 30, Value: 3, Delay: 200 * time.Millisecond, Codec: "raw"},
			{Name: "d", Samples: 15, Value: 4, Delay: 120 * time.Millisecond, Codec: "f32"},
			{Name: "slow", Samples: 25, Value: 9, Delay: 800 * time.Millisecond, Codec: "raw"},
		},
	}
	js := func() []byte {
		res, err := h.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.History)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := js(), js()
	if !bytes.Equal(a, b) {
		t.Fatalf("histories differ across identical runs:\n%s\n%s", a, b)
	}
}
