package sim

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"clinfl/internal/fl"
)

// diffSystemFields compares the system-side trajectory of two runs —
// everything except model quality (losses, validation scores, weights).
// The multiplexed run must reproduce these exactly: per-client speed,
// link, jitter and fault draws are index-keyed hash streams, and the
// surrogate byte model is exact for every codec.
func diffSystemFields(t *testing.T, real, multi *RunResult) {
	t.Helper()
	ra, rb := real.Result.History.Rounds, multi.Result.History.Rounds
	if len(ra) != len(rb) {
		t.Fatalf("round counts differ: real %d, multiplexed %d", len(ra), len(rb))
	}
	for i := range ra {
		a, b := ra[i], rb[i]
		check := func(field string, av, bv any) {
			if fmt.Sprint(av) != fmt.Sprint(bv) {
				t.Errorf("round %d %s: real %v, multiplexed %v", a.Round, field, av, bv)
			}
		}
		check("Sampled", a.Sampled, b.Sampled)
		check("Participants", a.Participants, b.Participants)
		check("LateApplied", a.LateApplied, b.LateApplied)
		check("LateDropped", a.LateDropped, b.LateDropped)
		check("Failures", a.Failures, b.Failures)
		check("BytesUp", a.BytesUp, b.BytesUp)
		check("BytesDown", a.BytesDown, b.BytesDown)
		check("Duration", a.Duration, b.Duration)
	}
	if real.BytesUp != multi.BytesUp || real.BytesDown != multi.BytesDown {
		t.Errorf("total bytes differ: real %d/%d, multiplexed %d/%d",
			real.BytesUp, real.BytesDown, multi.BytesUp, multi.BytesDown)
	}
	if fmt.Sprint(real.Stragglers) != fmt.Sprint(multi.Stragglers) {
		t.Errorf("straggler sets differ")
	}
	if fmt.Sprint(real.Faulty) != fmt.Sprint(multi.Faulty) {
		t.Errorf("faulty sets differ")
	}
	if real.VirtualElapsed != multi.VirtualElapsed {
		t.Errorf("virtual elapsed differs: real %v, multiplexed %v", real.VirtualElapsed, multi.VirtualElapsed)
	}
}

// TestSurrogateCalibrationAgainstFullyReal is the surrogate-vs-real
// acceptance bound on the fully-real 200-client baseline scenario: the
// multiplexed run (32 real shards, 168 surrogates) must reproduce the
// real run's system trajectory byte-for-byte, and its model quality —
// the one thing surrogates approximate — must stay within the pinned
// tolerance of the fully-real result.
func TestSurrogateCalibrationAgainstFullyReal(t *testing.T) {
	real, err := ScaleScenario(7).Run()
	if err != nil {
		t.Fatal(err)
	}
	sc := ScaleScenario(7)
	sc.RealClients = 32
	multi, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	diffSystemFields(t, real, multi)

	// Model-quality tolerance: both runs must converge well clear of the
	// initial model, and the surrogate run's final holdout MSE must stay
	// within 0.05 absolute of the fully-real one (the fully-real scenario
	// lands around 0.02; see docs/capacity/ for the calibrated numbers).
	if multi.FinalMSE >= multi.InitialMSE/10 {
		t.Errorf("multiplexed run did not converge: MSE %v -> %v", multi.InitialMSE, multi.FinalMSE)
	}
	if d := math.Abs(multi.FinalMSE - real.FinalMSE); d > 0.05 {
		t.Errorf("surrogate model error out of tolerance: real MSE %.6f, multiplexed %.6f (|d| %.6f > 0.05)",
			real.FinalMSE, multi.FinalMSE, d)
	}
}

// TestCalibratedCostsExact pins the byte model itself: for every codec in
// the negotiation set, the calibrated size equals the size of a real
// encoded update — and stays equal for a *different* shard and *different*
// round weights, because all four encodings are shape-determined.
func TestCalibratedCostsExact(t *testing.T) {
	sc := Scenario{
		Seed:    11,
		Clients: 8,
		Codecs:  []string{"raw", "f32", "topk:0.25", "int8"},
	}.withDefaults()
	pop := NewPopulation(sc.Seed, 4)
	cm, err := calibrateCosts(sc, pop)
	if err != nil {
		t.Fatal(err)
	}
	// Train a different shard from non-initial weights.
	mid, _, err := pop.Shards[1].Train(InitialLinearWeights(LinearDim))
	if err != nil {
		t.Fatal(err)
	}
	trained, _, err := pop.Shards[3].Train(mid)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sc.Codecs {
		codec, err := fl.CodecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := codec.Encode(trained)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cm.UpBytes[name], len(blob); got != want {
			t.Errorf("codec %q: calibrated %d bytes, real encode %d", name, got, want)
		}
	}
	downBlob, err := fl.EncodeWeights(mid)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cm.DownBytes, len(downBlob); got != want {
		t.Errorf("down codec: calibrated %d bytes, real encode %d", got, want)
	}
}

// Planner100kScenario is the headline multiplexed spec: 100k clients, 64
// real shards, 5% sampled per round (5000 participants), mixed codecs
// including the int8 uplink, stragglers and faults on. It is the scale
// ROADMAP item 5 asks the capacity planner to reach deterministically.
func Planner100kScenario(seed int64) Scenario {
	return Scenario{
		Name:           "planner-100k",
		Seed:           seed,
		Clients:        100_000,
		RealClients:    64,
		Rounds:         3,
		SampleFraction: 0.05,
		MinUpdates:     2000,
		MinClients:     100,
		RoundDeadline:  1500 * time.Millisecond,
		FedAsyncAlpha:  0.5,
		Validate:       true,
		Codecs:         []string{"raw", "f32", "int8", "topk:0.25"},
		Compute: ComputeProfile{
			Mean:              200 * time.Millisecond,
			Jitter:            100 * time.Millisecond,
			StragglerFraction: 0.10,
			StragglerFactor:   20,
		},
		Faults: FaultProfile{FaultyFraction: 0.05, DropProb: 0.3},
	}
}

// TestPlanner100kSmoke runs the 100k-client multiplexed scenario twice
// and requires byte-identical History — the capacity planner's core
// claim: two and a half orders of magnitude past the paper's 4 sites,
// deterministic, in seconds of real time.
func TestPlanner100kSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-client scenario skipped in -short mode")
	}
	res, err := Planner100kScenario(7).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RealElapsed > 60*time.Second {
		t.Fatalf("100k-client scenario took %v real time, want well under a minute", res.RealElapsed)
	}
	if got := len(res.Result.History.Rounds); got != 3 {
		t.Fatalf("completed %d rounds, want 3", got)
	}
	for _, rec := range res.Result.History.Rounds {
		if len(rec.Sampled) != 5000 {
			t.Fatalf("round %d sampled %d clients, want 5000", rec.Round, len(rec.Sampled))
		}
		if rec.BytesDown == 0 {
			t.Fatalf("round %d recorded no downlink bytes", rec.Round)
		}
	}
	if res.FinalMSE >= res.InitialMSE {
		t.Fatalf("100k scenario did not improve: MSE %v -> %v", res.InitialMSE, res.FinalMSE)
	}
	js1, err := res.HistoryJSON()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Planner100kScenario(7).Run()
	if err != nil {
		t.Fatal(err)
	}
	js2, err := res2.HistoryJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1, js2) {
		t.Fatal("100k-client scenario is not deterministic across runs")
	}
}
