package fl_test

// Virtual-clock rewrites of the controller's straggler/deadline tests.
// The originals in async_test.go drove real goroutine sleeps against real
// timers — hundreds of milliseconds per test and flaky the moment CI
// stalls at the wrong instant. Here the same scenarios run on
// sim.NewVirtualClock: delays are virtual (the suite finishes in
// microseconds), deadline outcomes are deterministic, and the assertions
// can therefore be exact instead of margin-padded. This file lives in
// package fl_test because sim imports fl.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"clinfl/internal/fl"
	"clinfl/internal/sim"
	"clinfl/internal/tensor"
)

// vexec is the canned virtual-delay executor: a Planner whose round lands
// delay after dispatch.
type vexec struct {
	name    string
	samples int
	value   float64
	delay   time.Duration
	fail    bool
	// malformed transposes the update's layer.w, a shape no round has.
	malformed bool
}

func (e *vexec) Name() string { return e.name }

func (e *vexec) ExecuteRound(round int, global map[string]*tensor.Matrix) (*fl.ClientUpdate, error) {
	_, u, err := e.PlanRound(round, global)
	return u, err
}

func (e *vexec) PlanRound(round int, global map[string]*tensor.Matrix) (time.Duration, *fl.ClientUpdate, error) {
	if e.fail {
		return e.delay, nil, errors.New("injected failure")
	}
	weights := make(map[string]*tensor.Matrix, len(global))
	for name, m := range global {
		w := tensor.New(m.Rows(), m.Cols())
		w.Fill(e.value)
		weights[name] = w
	}
	if e.malformed {
		w := weights["layer.w"]
		weights["layer.w"] = tensor.New(w.Cols(), w.Rows())
	}
	return e.delay, &fl.ClientUpdate{
		ClientName: e.name, Round: round, Weights: weights,
		NumSamples: e.samples, TrainLoss: 1,
	}, nil
}

func vinitial() map[string]*tensor.Matrix {
	return map[string]*tensor.Matrix{
		"layer.w": tensor.New(2, 3),
		"layer.b": tensor.New(1, 3),
	}
}

// runVirtual builds a controller over the executors on a fresh virtual
// clock and runs it.
func runVirtual(t *testing.T, cfg fl.ControllerConfig, execs []*vexec) (*fl.Result, error) {
	t.Helper()
	cfg.Clock = sim.NewVirtualClock()
	els := make([]fl.Executor, len(execs))
	for i, e := range execs {
		els[i] = e
	}
	ctrl, err := fl.NewController(cfg, els)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl.Run(context.Background(), vinitial())
}

// vfour is the canonical roster: 3 fast clients plus one straggler.
func vfour(delay time.Duration) []*vexec {
	return []*vexec{
		{name: "a", samples: 10, value: 1},
		{name: "b", samples: 10, value: 1},
		{name: "c", samples: 10, value: 1},
		{name: "slow", samples: 10, value: 9, delay: delay},
	}
}

// The acceptance scenario, deterministic: 1 of 4 clients delayed 5s
// (virtual) beyond a 300ms round deadline; every round completes without
// it, instantly in real time.
func TestVirtualAsyncRoundsDoNotBlockOnStraggler(t *testing.T) {
	start := time.Now()
	res, err := runVirtual(t, fl.ControllerConfig{
		Rounds:        3,
		MinClients:    1,
		MinUpdates:    3,
		RoundDeadline: 300 * time.Millisecond,
	}, vfour(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("virtual run consumed %v real time", elapsed)
	}
	if len(res.History.Rounds) != 3 {
		t.Fatalf("completed %d rounds, want 3", len(res.History.Rounds))
	}
	for i, rec := range res.History.Rounds {
		if len(rec.Participants) != 3 {
			t.Fatalf("round %d aggregated %v, want the 3 fast clients", i, rec.Participants)
		}
		for _, p := range rec.Participants {
			if p == "slow" {
				t.Fatalf("round %d straggler recorded as participant", i)
			}
		}
	}
	if len(res.History.Rounds[0].Sampled) != 4 {
		t.Fatalf("round 0 sampled %v, want all 4", res.History.Rounds[0].Sampled)
	}
	if len(res.History.Rounds[1].Sampled) != 3 {
		t.Fatalf("round 1 sampled %v, want 3 (straggler in flight)", res.History.Rounds[1].Sampled)
	}
	if got := res.FinalWeights["layer.w"].At(0, 0); got != 1 {
		t.Fatalf("final weight %v, want 1", got)
	}
	// Virtual round durations are exact: each round ends at MinUpdates (no
	// fast-client delay) except none run past the deadline.
	for i, rec := range res.History.Rounds {
		if rec.Duration > 300*time.Millisecond {
			t.Fatalf("round %d virtual duration %v exceeded the deadline", i, rec.Duration)
		}
	}
}

// lateVirtualScenario: the straggler's round-0 update arrives during round
// 1's gather — exactly, every run. malformed makes that update's shapes
// wrong.
func lateVirtualScenario(t *testing.T, async fl.AsyncAggregator, malformed bool) (*fl.Result, error) {
	execs := []*vexec{
		{name: "a", samples: 10, value: 1, delay: 400 * time.Millisecond},
		{name: "b", samples: 10, value: 1, delay: 400 * time.Millisecond},
		{name: "c", samples: 10, value: 1, delay: 400 * time.Millisecond},
		{name: "slow", samples: 10, value: 9, delay: 600 * time.Millisecond, malformed: malformed},
	}
	return runVirtual(t, fl.ControllerConfig{
		Rounds:          2,
		MinClients:      1,
		MinUpdates:      3,
		RoundDeadline:   5 * time.Second,
		AsyncAggregator: async,
	}, execs)
}

func TestVirtualLateUpdatesDroppedByDefault(t *testing.T) {
	res, err := lateVirtualScenario(t, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	var dropped []string
	for _, rec := range res.History.Rounds {
		dropped = append(dropped, rec.LateDropped...)
		if len(rec.LateApplied) != 0 {
			t.Fatalf("no async aggregator, yet late update applied: %+v", rec)
		}
	}
	if len(dropped) != 1 || dropped[0] != "slow" {
		t.Fatalf("late drops %v, want [slow]", dropped)
	}
	if got := res.FinalWeights["layer.w"].At(0, 0); got != 1 {
		t.Fatalf("dropped straggler leaked into the model: %v", got)
	}
}

func TestVirtualFedAsyncFoldsLateUpdates(t *testing.T) {
	res, err := lateVirtualScenario(t, fl.FedAsync{Alpha: 0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	var applied []string
	for _, rec := range res.History.Rounds {
		applied = append(applied, rec.LateApplied...)
	}
	if len(applied) != 1 || applied[0] != "slow" {
		t.Fatalf("late applies %v, want [slow]", applied)
	}
	// Round 1 aggregate of fast clients = 1; staleness-1 merge:
	// a = 0.5/(1+1) = 0.25 -> 0.75*1 + 0.25*9 = 3. Exact, every run.
	if got := res.FinalWeights["layer.w"].At(0, 0); got != 3 {
		t.Fatalf("fedasync final weight %v, want exactly 3", got)
	}
}

// A late update whose shapes no round has fails by name at finalize; the
// run goes on without it.
func TestVirtualBadLateUpdateDoesNotAbortRun(t *testing.T) {
	res, err := lateVirtualScenario(t, fl.FedAsync{Alpha: 0.5}, true)
	if err != nil {
		t.Fatalf("one bad late update aborted the run: %v", err)
	}
	var failures, applied []string
	for _, rec := range res.History.Rounds {
		failures = append(failures, rec.Failures...)
		applied = append(applied, rec.LateApplied...)
	}
	if len(applied) != 0 {
		t.Fatalf("malformed late update still applied: %v", applied)
	}
	found := false
	for _, f := range failures {
		if strings.HasPrefix(f, "slow: late update: param \"layer.w\" shape 3x2, want 2x3") {
			found = true
		}
	}
	if !found {
		t.Fatalf("malformed late update missing from failures: %v", failures)
	}
	if got := res.FinalWeights["layer.w"].At(0, 0); got != 1 {
		t.Fatalf("malformed straggler leaked into the model: %v", got)
	}
}

func TestVirtualDeadlinePartialAggregationQuorum(t *testing.T) {
	// Quorum above what the deadline leaves standing: the run must error.
	_, err := runVirtual(t, fl.ControllerConfig{
		Rounds: 1, MinClients: 4, RoundDeadline: 200 * time.Millisecond,
	}, vfour(2*time.Second))
	if err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("want quorum error with MinClients=4, got %v", err)
	}

	// Quorum the deadline can satisfy: partial aggregation proceeds.
	res, err := runVirtual(t, fl.ControllerConfig{
		Rounds: 1, MinClients: 3, RoundDeadline: 200 * time.Millisecond,
	}, vfour(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History.Rounds[0].Participants) != 3 {
		t.Fatalf("participants %v, want 3", res.History.Rounds[0].Participants)
	}
}

func TestVirtualStragglerLegacyTimeout(t *testing.T) {
	// With no MinUpdates the deadline alone cuts the round; under the
	// virtual clock a 2s straggler against a 200ms deadline costs no real
	// time.
	res, err := runVirtual(t, fl.ControllerConfig{
		Rounds: 1, MinClients: 1, RoundDeadline: 200 * time.Millisecond,
	}, []*vexec{
		{name: "fast", samples: 1, value: 1},
		{name: "slow", samples: 1, value: 9, delay: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.FinalWeights["layer.w"].At(0, 0); got != 1 {
		t.Fatalf("straggler's update should be dropped, got %v", got)
	}
}

// TestVirtualClockRejectsNonPlanner: a plain Executor's round runs on a
// goroutine the virtual clock cannot order, so NewController refuses it on
// a virtual clock, naming it, while the bare Planner is accepted.
func TestVirtualClockRejectsNonPlanner(t *testing.T) {
	inner := &vexec{name: "x", samples: 5, value: 2}
	plain := struct{ fl.Executor }{inner} // hides PlanRound
	cfg := fl.ControllerConfig{Rounds: 1, Clock: sim.NewVirtualClock()}
	_, err := fl.NewController(cfg, []fl.Executor{plain})
	if err == nil || !strings.Contains(err.Error(), `"x"`) || !strings.Contains(err.Error(), "Planner") {
		t.Fatalf("NewController(virtual clock, plain executor) = %v, want a rejection naming \"x\"", err)
	}
	if _, err := fl.NewController(cfg, []fl.Executor{inner}); err != nil {
		t.Fatalf("Planner rejected on a virtual clock: %v", err)
	}
}

// TestVirtualHistoryReplaysBitIdentical: the full async scenario replays
// byte-for-byte — the determinism contract async_test.go could never pin.
func TestVirtualHistoryReplaysBitIdentical(t *testing.T) {
	run := func() []byte {
		res, err := lateVirtualScenario(t, fl.FedAsync{Alpha: 0.5}, false)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res.History)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("History not reproducible:\n%s\n%s", a, b)
	}
}
