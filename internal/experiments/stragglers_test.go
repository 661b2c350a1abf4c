package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"clinfl/internal/fl"
	"clinfl/internal/tensor"
)

// TestStragglerSweepAcceptance pins the async-federation acceptance
// criteria end to end on real training: with 1 of 4 clients delayed
// beyond the round budget, the async schemes complete every round without
// blocking, report per-round participation, the quantized uplink cuts
// bytes-on-wire per round by >= 40%, and final accuracy stays within a
// point of the raw-codec sync baseline.
func TestStragglerSweepAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	const delay = 500 * time.Millisecond
	results, err := RunStragglerSweep(context.Background(), 8, delay)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(StragglerSchemes) {
		t.Fatalf("got %d results, want %d", len(results), len(StragglerSchemes))
	}
	byName := map[string]StragglerResult{}
	for _, r := range results {
		byName[r.Scheme] = r
		if r.Rounds < 3 {
			t.Fatalf("%s completed only %d rounds", r.Scheme, r.Rounds)
		}
		if r.Accuracy <= 0.5 || r.Accuracy > 1 {
			t.Fatalf("%s accuracy %v implausible", r.Scheme, r.Accuracy)
		}
	}
	sync, asyncF32 := byName["sync-raw"], byName["async-f32"]

	// Sync blocks on the straggler every round; async must not.
	if sync.MeanParticipants != 4 {
		t.Fatalf("sync participants %.1f, want 4", sync.MeanParticipants)
	}
	if asyncF32.MeanParticipants != 3 {
		t.Fatalf("async participants %.1f, want 3 (straggler dropped)", asyncF32.MeanParticipants)
	}
	if sync.MeanRoundTime < delay {
		t.Fatalf("sync round %v should include the %v straggler delay", sync.MeanRoundTime, delay)
	}
	if asyncF32.MeanRoundTime >= sync.MeanRoundTime {
		t.Fatalf("async round %v not faster than sync %v", asyncF32.MeanRoundTime, sync.MeanRoundTime)
	}

	// The quantized codec cuts measured bytes-on-wire per round by >= 40%.
	if float64(asyncF32.BytesUpPerRound) > 0.6*float64(sync.BytesUpPerRound) {
		t.Fatalf("f32 uplink %d B/round, want >= 40%% below raw %d",
			asyncF32.BytesUpPerRound, sync.BytesUpPerRound)
	}

	// Final accuracy within 1 point of the raw-codec sync baseline (the
	// async run may be better; it must not be more than a point worse).
	if asyncF32.Accuracy < sync.Accuracy-0.01 {
		t.Fatalf("async+f32 accuracy %.3f more than 1 point below sync baseline %.3f",
			asyncF32.Accuracy, sync.Accuracy)
	}
}

// stubSite runs f as its round.
type stubSite struct{ f func() error }

func (stubSite) Name() string { return "stub" }

func (s stubSite) ExecuteRound(int, map[string]*tensor.Matrix) (*fl.ClientUpdate, error) {
	return nil, s.f()
}

// TestStragglerStartsAfterPromptSites pins the rule that keeps the sweep's
// async accuracies independent of machine load: the straggler trains a
// round only after every prompt site has returned from it, a failed
// return included, so it can never make the MinUpdates cut.
func TestStragglerStartsAfterPromptSites(t *testing.T) {
	gate := &roundGate{sites: 2}
	var returned atomic.Int32
	ran := make(chan int32, 1)
	late := lateSite{Executor: stubSite{func() error {
		ran <- returned.Load()
		return nil
	}}, gate: gate}
	go func() {
		if _, err := late.ExecuteRound(3, nil); err != nil {
			t.Error(err)
		}
	}()
	// Give a straggler that does not wait the time to run early.
	select {
	case n := <-ran:
		t.Fatalf("straggler trained after %d of 2 prompt sites returned", n)
	case <-time.After(50 * time.Millisecond):
	}
	ok := promptSite{Executor: stubSite{func() error { returned.Add(1); return nil }}, gate: gate}
	failed := promptSite{Executor: stubSite{func() error { returned.Add(1); return errors.New("lost") }}, gate: gate}
	if _, err := ok.ExecuteRound(3, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := failed.ExecuteRound(3, nil); err == nil {
		t.Fatal("the failing prompt site's error was lost")
	}
	if n := <-ran; n != 2 {
		t.Fatalf("straggler trained after %d of 2 prompt sites returned", n)
	}
}
