package fl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"clinfl/internal/tensor"
)

// fakeExecutor returns canned weights for controller tests.
type fakeExecutor struct {
	name      string
	samples   int
	value     float64 // every weight element is set to this after "training"
	fail      bool
	delay     time.Duration
	calls     int
	upBytes   int // stamped as PayloadBytes when non-zero
	downBytes int // stamped as DownBytes when non-zero
}

func (f *fakeExecutor) Name() string { return f.name }

func (f *fakeExecutor) ExecuteRound(round int, global map[string]*tensor.Matrix) (*ClientUpdate, error) {
	f.calls++
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.fail {
		return nil, errors.New("injected failure")
	}
	weights := make(map[string]*tensor.Matrix, len(global))
	for name, m := range global {
		w := tensor.New(m.Rows(), m.Cols())
		w.Fill(f.value)
		weights[name] = w
	}
	return &ClientUpdate{
		ClientName: f.name, Round: round, Weights: weights,
		NumSamples: f.samples, TrainLoss: 1.0 / float64(round+1),
		PayloadBytes: f.upBytes, DownBytes: f.downBytes,
	}, nil
}

func initialWeights() map[string]*tensor.Matrix {
	return map[string]*tensor.Matrix{
		"layer.w": tensor.New(2, 3),
		"layer.b": tensor.New(1, 3),
	}
}

func TestFedAvgWeightsBySampleCount(t *testing.T) {
	mk := func(v float64, n int) *ClientUpdate {
		w := tensor.New(1, 2)
		w.Fill(v)
		return &ClientUpdate{ClientName: fmt.Sprint(v), Weights: map[string]*tensor.Matrix{"w": w}, NumSamples: n}
	}
	out, err := FedAvg{}.Aggregate([]*ClientUpdate{mk(1, 30), mk(5, 10)})
	if err != nil {
		t.Fatal(err)
	}
	want := (1.0*30 + 5.0*10) / 40
	if got := out["w"].At(0, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("fedavg %v, want %v", got, want)
	}
}

func TestMeanAggregatorIgnoresSampleCount(t *testing.T) {
	mk := func(v float64, n int) *ClientUpdate {
		w := tensor.New(1, 1)
		w.Fill(v)
		return &ClientUpdate{ClientName: fmt.Sprint(v), Weights: map[string]*tensor.Matrix{"w": w}, NumSamples: n}
	}
	out, err := MeanAggregator{}.Aggregate([]*ClientUpdate{mk(1, 1000), mk(5, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := out["w"].At(0, 0); math.Abs(got-3) > 1e-12 {
		t.Fatalf("mean %v, want 3", got)
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, err := (FedAvg{}).Aggregate(nil); err == nil {
		t.Fatal("want error for no updates")
	}
	w := tensor.New(1, 1)
	bad := []*ClientUpdate{
		{ClientName: "a", Weights: map[string]*tensor.Matrix{"w": w}, NumSamples: 0},
	}
	if _, err := (FedAvg{}).Aggregate(bad); err == nil {
		t.Fatal("want error for zero samples")
	}
	mismatch := []*ClientUpdate{
		{ClientName: "a", Weights: map[string]*tensor.Matrix{"w": w}, NumSamples: 1},
		{ClientName: "b", Weights: map[string]*tensor.Matrix{"v": w}, NumSamples: 1},
	}
	if _, err := (FedAvg{}).Aggregate(mismatch); err == nil {
		t.Fatal("want error for missing param")
	}
}

// Property: FedAvg of identical updates is identity, regardless of weights.
func TestFedAvgIdentityProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		clients := int(n%7) + 1
		rng := tensor.NewRNG(seed)
		base := rng.Normal(3, 4, 0, 1)
		updates := make([]*ClientUpdate, clients)
		for i := range updates {
			updates[i] = &ClientUpdate{
				ClientName: fmt.Sprint(i),
				Weights:    map[string]*tensor.Matrix{"w": base.Clone()},
				NumSamples: 1 + rng.Intn(100),
			}
		}
		out, err := FedAvg{}.Aggregate(updates)
		if err != nil {
			return false
		}
		return out["w"].AllClose(base, 1e-9, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: aggregation output is bounded by the min/max of client values.
func TestFedAvgConvexityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		clients := 2 + rng.Intn(5)
		updates := make([]*ClientUpdate, clients)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range updates {
			v := rng.Float64()*10 - 5
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			w := tensor.New(1, 1)
			w.Fill(v)
			updates[i] = &ClientUpdate{
				ClientName: fmt.Sprint(i),
				Weights:    map[string]*tensor.Matrix{"w": w},
				NumSamples: 1 + rng.Intn(50),
			}
		}
		out, err := FedAvg{}.Aggregate(updates)
		if err != nil {
			return false
		}
		got := out["w"].At(0, 0)
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestControllerRunsAllRounds(t *testing.T) {
	execs := []Executor{
		&fakeExecutor{name: "a", samples: 10, value: 1},
		&fakeExecutor{name: "b", samples: 30, value: 2},
	}
	ctrl, err := NewController(ControllerConfig{Rounds: 3}, execs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run(context.Background(), initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History.Rounds) != 3 {
		t.Fatalf("rounds %d", len(res.History.Rounds))
	}
	// FedAvg: (1*10 + 2*30)/40 = 1.75 everywhere.
	if got := res.FinalWeights["layer.w"].At(0, 0); math.Abs(got-1.75) > 1e-12 {
		t.Fatalf("final weight %v, want 1.75", got)
	}
	for _, e := range execs {
		if e.(*fakeExecutor).calls != 3 {
			t.Fatalf("executor called %d times", e.(*fakeExecutor).calls)
		}
	}
}

// Executors that model their own transfers (the simulator's clients,
// cost-replaying surrogates) stamp PayloadBytes/DownBytes on the update;
// the controller must fold both into the round record's byte counters.
func TestControllerAccountsExecutorStampedBytes(t *testing.T) {
	execs := []Executor{
		&fakeExecutor{name: "a", samples: 10, value: 1, upBytes: 100, downBytes: 40},
		&fakeExecutor{name: "b", samples: 30, value: 2, upBytes: 250, downBytes: 40},
	}
	ctrl, err := NewController(ControllerConfig{Rounds: 2}, execs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run(context.Background(), initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.History.Rounds {
		if rec.BytesUp != 350 {
			t.Fatalf("round %d BytesUp %d, want 350", rec.Round, rec.BytesUp)
		}
		if rec.BytesDown != 80 {
			t.Fatalf("round %d BytesDown %d, want 80", rec.Round, rec.BytesDown)
		}
	}
}

func TestControllerModelSelectionKeepsBest(t *testing.T) {
	execs := []Executor{&fakeExecutor{name: "a", samples: 1, value: 1}}
	scores := []float64{0.5, 0.9, 0.7}
	i := 0
	ctrl, err := NewController(ControllerConfig{
		Rounds: 3,
		Validate: func(map[string]*tensor.Matrix) (float64, error) {
			s := scores[i]
			i++
			return s, nil
		},
	}, execs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run(context.Background(), initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	if res.History.BestRound != 1 || res.History.BestScore != 0.9 {
		t.Fatalf("best round %d score %v", res.History.BestRound, res.History.BestScore)
	}
}

func TestControllerQuorumFailure(t *testing.T) {
	execs := []Executor{
		&fakeExecutor{name: "a", samples: 1, value: 1, fail: true},
		&fakeExecutor{name: "b", samples: 1, value: 2},
	}
	// MinClients 0 would be a floor of one, which b alone meets.
	ctrl, err := NewController(ControllerConfig{Rounds: 1, MinClients: 2}, execs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Run(context.Background(), initialWeights()); err == nil {
		t.Fatal("want quorum error")
	}
}

func TestControllerToleratesFailureWithQuorum(t *testing.T) {
	execs := []Executor{
		&fakeExecutor{name: "a", samples: 1, value: 1, fail: true},
		&fakeExecutor{name: "b", samples: 1, value: 2},
	}
	ctrl, err := NewController(ControllerConfig{Rounds: 2, MinClients: 1}, execs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run(context.Background(), initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.FinalWeights["layer.w"].At(0, 0); got != 2 {
		t.Fatalf("surviving client's weights not used: %v", got)
	}
	if len(res.History.Rounds[0].Participants) != 1 {
		t.Fatal("failed client recorded as participant")
	}
}

// One client's claimed sample count cannot set the model. Updates valued 0
// and 1, claiming 2^31−1 and 1 samples, used to commit 4.7e-10 under
// FedAvg; a claim at or above 2^21 is now that client's named failure, so
// with MinClients 1 the round commits the honest client's 1, on the flat
// and on the tier Controller alike. A claim just under the bound passes.
func TestControllerRejectsOversizedSampleClaim(t *testing.T) {
	for _, tier := range []*TierConfig{nil, {}} {
		execs := []Executor{
			&fakeExecutor{name: "greedy", samples: math.MaxInt32, value: 0},
			&fakeExecutor{name: "honest", samples: 1, value: 1},
		}
		ctrl, err := NewController(ControllerConfig{Rounds: 1, MinClients: 1, Tier: tier}, execs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ctrl.Run(context.Background(), initialWeights())
		if err != nil {
			t.Fatalf("tier %v: %v", tier != nil, err)
		}
		for name, m := range res.FinalWeights {
			for i, v := range m.Data() {
				if v != 1 {
					t.Fatalf("tier %v: %s[%d] = %v, want the honest client's 1", tier != nil, name, i, v)
				}
			}
		}
		rec := res.History.Rounds[0]
		if len(rec.Failures) != 1 || !strings.Contains(rec.Failures[0], "greedy: update claims 2147483647 samples") {
			t.Fatalf("tier %v: failures %q, want greedy's claim rejected by name", tier != nil, rec.Failures)
		}
		if len(rec.Participants) != 1 || rec.Participants[0] != "honest" {
			t.Fatalf("tier %v: participants %v", tier != nil, rec.Participants)
		}
	}

	execs := []Executor{
		&fakeExecutor{name: "big", samples: 1<<21 - 1, value: 0},
		&fakeExecutor{name: "small", samples: 1, value: 1},
	}
	ctrl, err := NewController(ControllerConfig{Rounds: 1}, execs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Run(context.Background(), initialWeights()); err != nil {
		t.Fatalf("claim of 2^21-1 samples refused: %v", err)
	}
}

func TestControllerCancellation(t *testing.T) {
	execs := []Executor{&fakeExecutor{name: "a", samples: 1, value: 1}}
	ctrl, err := NewController(ControllerConfig{Rounds: 100}, execs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ctrl.Run(ctx, initialWeights()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestControllerRejectsDuplicateNames(t *testing.T) {
	execs := []Executor{
		&fakeExecutor{name: "a", samples: 1},
		&fakeExecutor{name: "a", samples: 1},
	}
	if _, err := NewController(ControllerConfig{}, execs); err == nil {
		t.Fatal("want duplicate-name error")
	}
	if _, err := NewController(ControllerConfig{}, nil); err == nil {
		t.Fatal("want empty-executors error")
	}
}

// The straggler-timeout scenario now runs deterministically on the
// virtual clock: see TestVirtualStragglerLegacyTimeout in
// async_virtual_test.go.

func TestEncodeDecodeWeightsRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	weights := map[string]*tensor.Matrix{
		"a": rng.Normal(3, 4, 0, 1),
		"b": rng.Normal(1, 7, 0, 1),
	}
	blob, err := EncodeWeights(weights)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWeights(blob)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range weights {
		if !got[name].Equal(m) {
			t.Fatalf("weight %q changed in transit", name)
		}
	}
	if _, err := DecodeWeights([]byte("junk")); err == nil {
		t.Fatal("want decode error")
	}
}
