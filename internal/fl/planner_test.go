package fl

import (
	"context"
	"fmt"
	"testing"
	"time"

	"clinfl/internal/metrics"
	"clinfl/internal/tensor"
)

// plannedExecutor is a Planner whose canned round arrives offset after
// dispatch; planned counts the rounds that took the planned path.
type plannedExecutor struct {
	fakeExecutor
	offset  time.Duration
	planned int
}

func (p *plannedExecutor) PlanRound(round int, global map[string]*tensor.Matrix) (time.Duration, *ClientUpdate, error) {
	p.planned++
	u, err := p.fakeExecutor.ExecuteRound(round, global)
	return p.offset, u, err
}

var _ Planner = (*plannedExecutor)(nil)

// TestControllerDeliversPlannedRoundsOnRealClock: under the wall clock a
// Planner's outcome travels through time.AfterFunc and still reaches the
// gather, every round.
func TestControllerDeliversPlannedRoundsOnRealClock(t *testing.T) {
	execs := []*plannedExecutor{
		{fakeExecutor: fakeExecutor{name: "a", samples: 10, value: 1}, offset: time.Millisecond},
		{fakeExecutor: fakeExecutor{name: "b", samples: 30, value: 3}, offset: 5 * time.Millisecond},
	}
	ctrl, err := NewController(ControllerConfig{Rounds: 2}, []Executor{execs[0], execs[1]})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run(context.Background(), initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.History.Rounds {
		if fmt.Sprint(rec.Participants) != "[a b]" {
			t.Fatalf("round %d participants %v, want [a b]", rec.Round, rec.Participants)
		}
	}
	for _, e := range execs {
		if e.planned != 2 || e.calls != 2 {
			t.Fatalf("%s: planned %d of %d rounds, want 2 of 2", e.name, e.planned, e.calls)
		}
	}
	// FedAvg of 1 (10 samples) and 3 (30 samples).
	if got := res.FinalWeights["layer.w"].At(0, 0); got != 2.5 {
		t.Fatalf("aggregated weight %v, want 2.5", got)
	}
}

// TestControllerPlannedStragglerMissesDeadline: a Planner whose offset
// lies past RoundDeadline is still pending when the deadline fires — a
// straggler, neither a participant nor a failure.
func TestControllerPlannedStragglerMissesDeadline(t *testing.T) {
	reg := metrics.NewRegistry()
	ctrl, err := NewController(ControllerConfig{
		Rounds: 1, MinClients: 3, RoundDeadline: 300 * time.Millisecond, Metrics: reg,
	}, []Executor{
		&plannedExecutor{fakeExecutor: fakeExecutor{name: "a", samples: 10, value: 1}},
		&plannedExecutor{fakeExecutor: fakeExecutor{name: "b", samples: 10, value: 1}},
		&plannedExecutor{fakeExecutor: fakeExecutor{name: "c", samples: 10, value: 1}},
		&plannedExecutor{fakeExecutor: fakeExecutor{name: "slow", samples: 10, value: 9}, offset: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run(context.Background(), initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	rec := res.History.Rounds[0]
	if fmt.Sprint(rec.Sampled) != "[a b c slow]" {
		t.Fatalf("sampled %v, want all four", rec.Sampled)
	}
	if fmt.Sprint(rec.Participants) != "[a b c]" || len(rec.Failures) != 0 {
		t.Fatalf("participants %v failures %v, want [a b c] and none", rec.Participants, rec.Failures)
	}
	if got := reg.Counter("fl_stragglers_total", "").Value(); got != 1 {
		t.Fatalf("fl_stragglers_total = %d, want 1", got)
	}
	if got := res.FinalWeights["layer.w"].At(0, 0); got != 1 {
		t.Fatalf("straggler's weights reached the model: %v", got)
	}
}
