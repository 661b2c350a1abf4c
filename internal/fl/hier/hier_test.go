package hier_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"clinfl/internal/fl"
	"clinfl/internal/fl/hier"
	"clinfl/internal/tensor"
)

func randomUpdate(r *rand.Rand, name string, shapes map[string][2]int) hier.Update {
	weights := make(map[string]*tensor.Matrix, len(shapes))
	for pname, sh := range shapes {
		m := tensor.New(sh[0], sh[1])
		data := m.Data()
		for i := range data {
			// Arbitrary finite floats across ~24 decades of magnitude:
			// exactness must not depend on benign value ranges.
			data[i] = (r.Float64()*2 - 1) * math.Pow(2, float64(r.Intn(80)-40))
		}
		weights[pname] = m
	}
	return hier.Update{
		ClientName: name,
		Weights:    weights,
		NumSamples: 1 + r.Intn(5000),
		TrainLoss:  r.Float64() * 10,
	}
}

var testShapes = map[string][2]int{"layer.w": {3, 4}, "layer.b": {1, 4}}

// foldTree aggregates updates[lo:hi) through a random tree shape and
// returns the finalized weights.
func foldTree(t *testing.T, r *rand.Rand, updates []hier.Update) *hier.Partial {
	t.Helper()
	var build func(us []hier.Update) *hier.Partial
	build = func(us []hier.Update) *hier.Partial {
		p := hier.NewPartial()
		if len(us) <= 2 || r.Intn(3) == 0 {
			// Leaf aggregator: fold directly, in shuffled order.
			order := r.Perm(len(us))
			for _, i := range order {
				if err := p.Fold(us[i]); err != nil {
					t.Fatalf("fold %s: %v", us[i].ClientName, err)
				}
			}
			return p
		}
		// Split into 2-4 child aggregators and merge their partials.
		k := 2 + r.Intn(3)
		if k > len(us) {
			k = len(us)
		}
		bounds := map[int]bool{0: true, len(us): true}
		for len(bounds) < k+1 {
			bounds[1+r.Intn(len(us)-1)] = true
		}
		cuts := make([]int, 0, k+1)
		for b := range bounds {
			cuts = append(cuts, b)
		}
		for i := range cuts {
			for j := i + 1; j < len(cuts); j++ {
				if cuts[j] < cuts[i] {
					cuts[i], cuts[j] = cuts[j], cuts[i]
				}
			}
		}
		children := make([]*hier.Partial, 0, k)
		for i := 0; i+1 < len(cuts); i++ {
			children = append(children, build(us[cuts[i]:cuts[i+1]]))
		}
		for _, i := range r.Perm(len(children)) {
			if err := p.Merge(children[i]); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
		return p
	}
	return build(updates)
}

func assertBitIdentical(t *testing.T, a, b map[string]*tensor.Matrix, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: param count %d vs %d", label, len(a), len(b))
	}
	for name, ma := range a {
		mb, ok := b[name]
		if !ok {
			t.Fatalf("%s: missing param %q", label, name)
		}
		da, db := ma.Data(), mb.Data()
		for i := range da {
			if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
				t.Fatalf("%s: %s[%d] differs: %x (%v) vs %x (%v)",
					label, name, i, math.Float64bits(da[i]), da[i], math.Float64bits(db[i]), db[i])
			}
		}
	}
}

// TestTreeShapeBitIdentical is the core hierarchical invariant: FedAvg
// through any aggregation tree — any shard split, any merge order, any
// fold order — finalizes to exactly the same bits, on arbitrary finite
// floats, because partial sums are exact and finalization rounds once.
func TestTreeShapeBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(40)
		updates := make([]hier.Update, n)
		for i := range updates {
			updates[i] = randomUpdate(r, fmt.Sprintf("site-%03d", i), testShapes)
		}
		flat := hier.NewPartial()
		for _, u := range updates {
			if err := flat.Fold(u); err != nil {
				t.Fatal(err)
			}
		}
		want, err := flat.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		for shape := 0; shape < 5; shape++ {
			tree := foldTree(t, r, updates)
			if tree.Updates() != n {
				t.Fatalf("tree folded %d updates, want %d", tree.Updates(), n)
			}
			got, err := tree.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, want, got, fmt.Sprintf("trial %d shape %d", trial, shape))
		}
	}
}

// TestMatchesFlatFedAvgOnDyadicInputs pins streaming-vs-flat bit
// identity against the production flat aggregator: when client weights
// divide the total exactly in binary (total = power of two) and values
// have few significand bits, flat weightedAverage is itself exact, so
// the hierarchical result must equal it bit for bit.
func TestMatchesFlatFedAvgOnDyadicInputs(t *testing.T) {
	vals := []float64{1.5, -2.25, 0.125, 3, -0.5, 7.75, 42, -18.5}
	samples := []int{8, 16, 24, 16} // total 64 = 2^6
	flat := make([]*fl.ClientUpdate, len(samples))
	stream := hier.NewPartial()
	for i, s := range samples {
		weights := make(map[string]*tensor.Matrix)
		for pname, sh := range testShapes {
			m := tensor.New(sh[0], sh[1])
			data := m.Data()
			for j := range data {
				data[j] = vals[(i+j)%len(vals)] * float64(i+1)
			}
			weights[pname] = m
		}
		name := fmt.Sprintf("site-%d", i)
		flat[i] = &fl.ClientUpdate{ClientName: name, Weights: weights, NumSamples: s}
		if err := stream.Fold(hier.Update{ClientName: name, Weights: weights, NumSamples: s}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := (fl.FedAvg{}).Aggregate(flat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, want, got, "dyadic flat-vs-stream")
}

func TestFoldValidation(t *testing.T) {
	base := randomUpdate(rand.New(rand.NewSource(1)), "ok", testShapes)
	cases := []struct {
		name string
		mut  func(u *hier.Update)
		want string
	}{
		{"non-positive weight", func(u *hier.Update) { u.NumSamples = 0 }, "non-positive weight"},
		{"nan loss", func(u *hier.Update) { u.TrainLoss = math.NaN() }, "non-finite train loss"},
		{"extra param", func(u *hier.Update) { u.Weights["rogue"] = tensor.New(1, 1) }, "params, want"},
		{"missing param", func(u *hier.Update) { delete(u.Weights, "layer.b"); u.Weights["other"] = tensor.New(1, 4) }, "missing param"},
		{"shape mismatch", func(u *hier.Update) { u.Weights["layer.b"] = tensor.New(2, 4) }, "want 1x4"},
		{"non-finite value", func(u *hier.Update) { u.Weights["layer.b"].Data()[0] = math.Inf(1) }, "non-finite value"},
		{"value at 2^980", func(u *hier.Update) { u.Weights["layer.b"].Data()[0] = -0x1p980 }, "magnitude at least 2^980"},
		{"value at MaxFloat64/2", func(u *hier.Update) { u.Weights["layer.b"].Data()[1] = math.MaxFloat64 / 2 }, "magnitude at least 2^980"},
	}
	for _, tc := range cases {
		p := hier.NewPartial()
		if err := p.Fold(base); err != nil {
			t.Fatal(err)
		}
		u := randomUpdate(rand.New(rand.NewSource(2)), "bad", testShapes)
		tc.mut(&u)
		err := p.Fold(u)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
		if p.Updates() != 1 {
			t.Errorf("%s: rejected fold changed update count to %d", tc.name, p.Updates())
		}
	}
	if _, err := hier.NewPartial().Finalize(); err == nil {
		t.Error("empty partial must not finalize")
	}
}

// A claimed sample count at or above 2^21 is refused, so one client
// cannot set the aggregate: updates valued 0 and 1 claiming 2^31−1 and 1
// samples used to finalize to 4.7e-10. The refused fold leaves the
// partial untouched, and the honest update alone finalizes to 1.
func TestFoldRejectsOversizedSampleClaim(t *testing.T) {
	constant := func(name string, v float64, samples int) hier.Update {
		m := tensor.New(1, 3)
		m.Fill(v)
		return hier.Update{ClientName: name, Weights: map[string]*tensor.Matrix{"w": m}, NumSamples: samples, TrainLoss: 0.5}
	}
	p := hier.NewPartial()
	err := p.Fold(constant("greedy", 0, math.MaxInt32))
	if err == nil || !strings.Contains(err.Error(), `client "greedy" claims 2147483647 samples`) {
		t.Fatalf("err = %v, want the oversized claim refused by name", err)
	}
	if err := p.Fold(constant("greedy", 0, 1<<21)); err == nil {
		t.Fatal("claim of 2^21 samples accepted")
	}
	if err := p.Fold(constant("honest", 1, 1)); err != nil {
		t.Fatal(err)
	}
	got, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got["w"].Data() {
		if v != 1 {
			t.Fatalf("w[%d] = %v, want 1", i, v)
		}
	}
	if err := hier.NewPartial().Fold(constant("big", 0, 1<<21-1)); err != nil {
		t.Fatalf("claim of 2^21-1 samples refused: %v", err)
	}
}

func TestAccountingAndMeanLoss(t *testing.T) {
	p := hier.NewPartial()
	mk := func(v float64) map[string]*tensor.Matrix {
		m := tensor.New(1, 1)
		m.Data()[0] = v
		return map[string]*tensor.Matrix{"w": m}
	}
	if err := p.Fold(hier.Update{ClientName: "b", Weights: mk(1), NumSamples: 3, TrainLoss: 2}); err != nil {
		t.Fatal(err)
	}
	q := hier.NewPartial()
	if err := q.Fold(hier.Update{ClientName: "a", Weights: mk(5), NumSamples: 1, TrainLoss: 6}); err != nil {
		t.Fatal(err)
	}
	q.Fail("c: exec: boom")
	q.AddTierBytes(77)
	if err := p.Merge(q); err != nil {
		t.Fatal(err)
	}
	if got := p.Failures(); len(got) != 1 || got[0] != "c: exec: boom" {
		t.Fatalf("failures = %v", got)
	}
	if p.Weight() != 4 || p.Updates() != 2 {
		t.Fatalf("weight/updates = %d/%d", p.Weight(), p.Updates())
	}
	if p.TierBytes() != 77 {
		t.Fatalf("tier bytes = %d", p.TierBytes())
	}
	// mean loss = (3*2 + 1*6)/4 = 3; mean weight = (3*1 + 1*5)/4 = 2.
	if got := p.MeanLoss(); got != 3 {
		t.Fatalf("mean loss = %v", got)
	}
	final, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := final["w"].Data()[0]; got != 2 {
		t.Fatalf("final = %v", got)
	}
}

// TestRejectedMergeLeavesPartialIntact: a node records a child partial it
// cannot merge as that child's failure and keeps aggregating, so the
// rejection must not have merged some parameters before it found the bad
// one (map order decides which it meets first; a handful of parameters makes
// "bad one last" near-certain across runs).
func TestRejectedMergeLeavesPartialIntact(t *testing.T) {
	shapes := map[string][2]int{"a": {1, 2}, "b": {1, 2}, "c": {1, 2}, "d": {1, 2}, "e": {1, 2}}
	r := rand.New(rand.NewSource(3))
	p, want, bad := hier.NewPartial(), hier.NewPartial(), hier.NewPartial()
	u := randomUpdate(r, "ok", shapes)
	for _, q := range []*hier.Partial{p, want} {
		if err := q.Fold(u); err != nil {
			t.Fatal(err)
		}
	}
	shapes["e"] = [2]int{2, 1}
	if err := bad.Fold(randomUpdate(r, "bad", shapes)); err != nil {
		t.Fatal(err)
	}
	if err := p.Merge(bad); err == nil {
		t.Fatal("merged a partial with a mismatched parameter shape")
	}
	got, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	wantW, err := want.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, wantW, got, "after a rejected merge")
	if p.Updates() != 1 || p.Weight() != want.Weight() {
		t.Fatalf("rejected merge changed updates/weight to %d/%d", p.Updates(), p.Weight())
	}
}

// TestResidentBytesIndependentOfClientCount is the O(model) property:
// folding 10x the updates must not grow the partial's resident state
// meaningfully (expansion lengths are bounded by the float64 exponent
// range, not by client count).
func TestResidentBytesIndependentOfClientCount(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p := hier.NewPartial()
	var at1k int64
	for i := 0; i < 10000; i++ {
		if err := p.Fold(randomUpdate(r, fmt.Sprintf("c%d", i), testShapes)); err != nil {
			t.Fatal(err)
		}
		if i == 999 {
			at1k = p.ResidentBytes()
		}
	}
	at10k := p.ResidentBytes()
	if at10k > at1k*3/2 {
		t.Fatalf("resident bytes grew with client count: %d at 1k folds vs %d at 10k", at1k, at10k)
	}
	// And it is nowhere near buffering 10k updates (16 params x 8 bytes
	// each x 10k clients would be ~1.3 MB).
	if at10k > 64<<10 {
		t.Fatalf("resident bytes %d not O(model)", at10k)
	}
}
