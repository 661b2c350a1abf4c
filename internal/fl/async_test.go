package fl

// Timing-free controller tests for sampling, quorum interplay, failure
// records and codec simulation. The straggler/deadline scenarios that used
// to live here on real goroutine sleeps — flaky whenever CI stalled — now
// run deterministically on the simulator's virtual clock in
// async_virtual_test.go, and as conformance invariants for every
// deployment shape in internal/fl/fltest.

import (
	"context"
	"strings"
	"testing"
	"time"
)

// fourClients builds 3 fast fakes plus one straggler delayed by delay.
func fourClients(delay time.Duration) []Executor {
	return []Executor{
		&fakeExecutor{name: "a", samples: 10, value: 1},
		&fakeExecutor{name: "b", samples: 10, value: 1},
		&fakeExecutor{name: "c", samples: 10, value: 1},
		&fakeExecutor{name: "slow", samples: 10, value: 9, delay: delay},
	}
}

func TestControllerSamplingSubsetPerRound(t *testing.T) {
	execs := fourClients(0)
	ctrl, err := NewController(ControllerConfig{
		Rounds: 4, MinClients: 1, SampleFraction: 0.5, Seed: 3,
	}, execs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run(context.Background(), initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i, rec := range res.History.Rounds {
		if len(rec.Sampled) != 2 {
			t.Fatalf("round %d sampled %v, want 2 clients", i, rec.Sampled)
		}
		if len(rec.Participants) != 2 {
			t.Fatalf("round %d participants %v, want the 2 sampled", i, rec.Participants)
		}
		for _, name := range rec.Sampled {
			seen[name]++
		}
	}
	if len(seen) < 3 {
		t.Fatalf("sampling never rotated: only %v tasked over 4 rounds", seen)
	}
}

func TestControllerExplicitQuorumAboveMinUpdates(t *testing.T) {
	// MinClients > MinUpdates: the gather must wait for the quorum rather
	// than cutting the round at MinUpdates and then failing the check.
	execs := fourClients(0)
	ctrl, err := NewController(ControllerConfig{
		Rounds: 2, MinUpdates: 1, MinClients: 3,
	}, execs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run(context.Background(), initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range res.History.Rounds {
		if len(rec.Participants) < 3 {
			t.Fatalf("round %d aggregated %d < MinClients participants", i, len(rec.Participants))
		}
	}
}

func TestControllerRecordsFailuresInResult(t *testing.T) {
	execs := []Executor{
		&fakeExecutor{name: "ok", samples: 1, value: 2},
		&fakeExecutor{name: "broken", samples: 1, value: 1, fail: true},
	}
	ctrl, err := NewController(ControllerConfig{Rounds: 1, MinClients: 1}, execs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run(context.Background(), initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	failures := res.History.Rounds[0].Failures
	if len(failures) != 1 || !strings.Contains(failures[0], "broken") {
		t.Fatalf("failures %v, want broken client recorded", failures)
	}
}

// TestControllerAggregationOrderIsCanonical pins the determinism contract
// finalizeRound provides: participants (and so the FedAvg accumulation
// order) are sorted by client name regardless of arrival order.
func TestControllerAggregationOrderIsCanonical(t *testing.T) {
	execs := []Executor{
		&fakeExecutor{name: "zeta", samples: 10, value: 1},
		&fakeExecutor{name: "alpha", samples: 20, value: 2, delay: 30 * time.Millisecond},
		&fakeExecutor{name: "mid", samples: 30, value: 3, delay: 10 * time.Millisecond},
	}
	ctrl, err := NewController(ControllerConfig{Rounds: 1}, execs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run(context.Background(), initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	got := res.History.Rounds[0].Participants
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("participants %v, want canonical order %v", got, want)
		}
	}
}
