package sim

import (
	"math"
	"slices"
	"testing"
	"time"

	"clinfl/internal/fl"
	"clinfl/internal/tensor"
)

// runScenario builds sc's roster, passes every executor through wrap, and
// runs it exactly as Scenario.Run does.
func runScenario(t *testing.T, sc Scenario, wrap func(*simClient) fl.Executor) *RunResult {
	t.Helper()
	sc = sc.withDefaults()
	clock := NewVirtualClock()
	set, err := sc.build(clock)
	if err != nil {
		t.Fatal(err)
	}
	for i, ex := range set.execs {
		set.execs[i] = wrap(ex.(*simClient))
	}
	res, err := sc.run(clock, set)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// twinWatch is a scenario client that, right after each planned round,
// deep-copies its twin's cached result the first time that result exists.
type twinWatch struct {
	*simClient
	first map[*twinResult]*twinResult
}

func (w twinWatch) PlanRound(round int, global map[string]*tensor.Matrix) (time.Duration, *fl.ClientUpdate, error) {
	d, u, err := w.simClient.PlanRound(round, global)
	if w.twin != nil {
		w.twin.mu.Lock()
		if r := w.twin.rounds[round]; r != nil && w.first[r] == nil {
			snap := &twinResult{weights: make(map[string]*tensor.Matrix, len(r.weights)), loss: r.loss}
			for name, m := range r.weights {
				snap.weights[name] = m.Clone()
			}
			w.first[r] = snap
		}
		w.twin.mu.Unlock()
	}
	return d, u, err
}

// TestSurrogateUpdatesStayReadOnly is the proof that surrogates may hand
// out their twin's cached weights uncloned: on a multiplexed flat run with
// FedAsync late merging — the capacity baseline's shape, where a twin's
// weights reach the FedAvg batch, the staleness merge and the validator —
// every twin's cached result ends the run bit-identical to the moment it
// was computed.
func TestSurrogateUpdatesStayReadOnly(t *testing.T) {
	sc := Scenario{
		Name:           "twin-readonly",
		Seed:           7,
		Clients:        400,
		RealClients:    16,
		Rounds:         8,
		SampleFraction: 0.25,
		MinUpdates:     50,
		MinClients:     50,
		RoundDeadline:  700 * time.Millisecond,
		FedAsyncAlpha:  0.5,
		Validate:       true,
		Codecs:         []string{"raw", "int8"},
		Compute: ComputeProfile{
			Mean:              200 * time.Millisecond,
			Jitter:            100 * time.Millisecond,
			StragglerFraction: 0.10,
			StragglerFactor:   5,
		},
		Faults: FaultProfile{FaultyFraction: 0.05, DropProb: 0.3},
	}
	first := map[*twinResult]*twinResult{}
	res := runScenario(t, sc, func(c *simClient) fl.Executor { return twinWatch{c, first} })

	// The run must actually take the paths in question: surrogate updates
	// aggregated in-round and merged late.
	// Clients at index RealClients (16) and above are surrogates.
	surrogate := func(name string) bool { return name >= "site-016" }
	var inRound, late bool
	for _, rec := range res.Result.History.Rounds {
		inRound = inRound || slices.ContainsFunc(rec.Participants, surrogate)
		late = late || slices.ContainsFunc(rec.LateApplied, surrogate)
	}
	if !inRound || !late {
		t.Fatalf("surrogates aggregated in-round %v, merged late %v: want both", inRound, late)
	}
	if len(first) == 0 {
		t.Fatal("no twin result was ever computed")
	}
	for r, snap := range first {
		if math.Float64bits(r.loss) != math.Float64bits(snap.loss) {
			t.Fatalf("twin loss changed: %v -> %v", snap.loss, r.loss)
		}
		for name, m := range snap.weights {
			if !sameBits(r.weights[name], m) {
				t.Fatalf("twin weights %q were written after they were handed out", name)
			}
		}
	}
}

// sameBits reports whether a and b hold bit-identical elements.
func sameBits(a, b *tensor.Matrix) bool {
	if !a.SameShape(b) {
		return false
	}
	bd := b.Data()
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}
