package fl

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"clinfl/internal/mlm"
	"clinfl/internal/model"
	"clinfl/internal/nn"
	"clinfl/internal/provision"
	"clinfl/internal/tensor"
	"clinfl/internal/token"
	"clinfl/internal/transport"
)

// deltaNorm computes the global L2 norm of (weights - global).
func deltaNorm(t *testing.T, weights, global map[string]*tensor.Matrix) float64 {
	t.Helper()
	var sq float64
	for name, w := range weights {
		d, err := tensor.Sub(w, global[name])
		if err != nil {
			t.Fatal(err)
		}
		n := d.Norm()
		sq += n * n
	}
	return math.Sqrt(sq)
}

// bigUpdate is a weight map filled with v over an all-zero global model.
func bigUpdate(v float64) (weights, global map[string]*tensor.Matrix) {
	global = map[string]*tensor.Matrix{
		"a": tensor.New(2, 2),
		"b": tensor.New(1, 4),
	}
	weights = make(map[string]*tensor.Matrix, len(global))
	for name, g := range global {
		m := tensor.New(g.Rows(), g.Cols())
		m.Fill(v)
		weights[name] = m
	}
	return weights, global
}

func TestNormCapFilterCapsLargeDelta(t *testing.T) {
	weights, global := bigUpdate(10) // delta norm = 10*sqrt(8) ≈ 28.3
	if deltaNorm(t, weights, global) <= 1 {
		t.Fatal("test setup: delta should start above the cap")
	}
	LocalConfig{DeltaNormCap: 1}.privatize(0, weights, global)
	if after := deltaNorm(t, weights, global); math.Abs(after-1) > 1e-9 {
		t.Fatalf("capped delta norm %v, want 1", after)
	}
	// Direction must be preserved: all elements equal and positive.
	if v0 := weights["a"].At(0, 0); v0 <= 0 || v0 != weights["b"].At(0, 3) {
		t.Fatalf("cap changed the delta direction: %v vs %v", v0, weights["b"].At(0, 3))
	}
}

func TestNormCapFilterLeavesSmallDelta(t *testing.T) {
	weights, global := bigUpdate(0.01)
	want := weights["a"].Clone()
	LocalConfig{DeltaNormCap: 10}.privatize(0, weights, global)
	if !weights["a"].Equal(want) {
		t.Fatal("under-cap update was modified")
	}
}

func TestGaussianNoiseFilterPerturbsWeights(t *testing.T) {
	weights, global := bigUpdate(1)
	orig := weights["a"].Clone()
	LocalConfig{NoiseSigma: 0.5, Seed: 1}.privatize(0, weights, global)
	if weights["a"].Equal(orig) {
		t.Fatal("noise left weights unchanged")
	}
	// Perturbation magnitude should be on the order of sigma.
	d, _ := tensor.Sub(weights["a"], orig)
	if d.MaxAbs() > 0.5*6 {
		t.Fatalf("noise far beyond 6 sigma: %v", d.MaxAbs())
	}
}

// With both knobs zero the filter is the identity, and it allocates
// nothing on the way.
func TestGaussianNoiseFilterZeroSigmaIsIdentity(t *testing.T) {
	weights, global := bigUpdate(1)
	orig := weights["a"].Clone()
	off := LocalConfig{Seed: 7}
	if allocs := testing.AllocsPerRun(10, func() { off.privatize(3, weights, global) }); allocs != 0 {
		t.Fatalf("privacy filter off allocated %v times per round", allocs)
	}
	if !weights["a"].Equal(orig) {
		t.Fatal("zero-sigma filter modified weights")
	}
}

// The noise stream is keyed by (Seed, round) alone: the same key draws the
// same bits, and a different seed or round draws different ones.
func TestSiteNoiseKeyedBySeedAndRound(t *testing.T) {
	noise := func(seed int64, round int) *tensor.Matrix {
		weights, global := bigUpdate(0)
		LocalConfig{NoiseSigma: 1, Seed: seed}.privatize(round, weights, global)
		return weights["a"]
	}
	if !noise(1, 2).Equal(noise(1, 2)) {
		t.Fatal("the same (seed, round) drew different noise")
	}
	if noise(1, 2).Equal(noise(2, 2)) {
		t.Fatal("two sites with different seeds drew the same noise")
	}
	if noise(1, 2).Equal(noise(1, 3)) {
		t.Fatal("two rounds of one site drew the same noise")
	}
}

// recordingSite keeps a copy of every update its executor returns.
type recordingSite struct {
	Executor
	mu      sync.Mutex
	updates []map[string]*tensor.Matrix
}

func (r *recordingSite) ExecuteRound(round int, global map[string]*tensor.Matrix) (*ClientUpdate, error) {
	u, err := r.Executor.ExecuteRound(round, global)
	if err == nil {
		r.mu.Lock()
		r.updates = append(r.updates, cloneWeights(u.Weights))
		r.mu.Unlock()
	}
	return u, err
}

// A site's clipped, noised update is the same bits whether it trains alone
// or beside other sites: nothing it draws depends on who else is in the
// round or when their updates arrive.
func TestSiteNoiseIndependentOfPeers(t *testing.T) {
	cfg := LocalConfig{Epochs: 1, LR: 1e-2, BatchSize: 8, DeltaNormCap: 0.05, NoiseSigma: 1e-3}
	site := func(name string, seed int64) *recordingSite {
		c := cfg
		c.Seed = seed
		exec, err := NewClassifierExecutor(name, tinyClassifier(t, 1), tinyDataset(24, seed), nil, c)
		if err != nil {
			t.Fatal(err)
		}
		return &recordingSite{Executor: exec}
	}
	run := func(sites ...*recordingSite) {
		execs := make([]Executor, len(sites))
		for i, s := range sites {
			execs[i] = s
		}
		ctrl, err := NewController(ControllerConfig{Rounds: 1}, execs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctrl.Run(context.Background(), nn.SnapshotWeights(tinyClassifier(t, 1).Params())); err != nil {
			t.Fatal(err)
		}
	}
	alone := site("a", 1)
	run(alone)
	beside := site("a", 1)
	run(beside, site("b", 2), site("c", 3))
	if weightsDigest(t, alone.updates[0]) != weightsDigest(t, beside.updates[0]) {
		t.Fatal("site a's update changed when other sites joined its round")
	}
}

// clippedUplinks is FedAvg that decodes every update the server accepted,
// for TestServerSeesOnlyClippedUpdates.
type clippedUplinks struct {
	FedAvg
	rounds [][]map[string]*tensor.Matrix
}

func (c *clippedUplinks) Aggregate(updates []*ClientUpdate) (map[string]*tensor.Matrix, error) {
	var round []map[string]*tensor.Matrix
	for _, u := range updates {
		w, err := DecodeWeights(u.payload)
		if err != nil {
			return nil, err
		}
		round = append(round, w)
	}
	c.rounds = append(c.rounds, round)
	return c.FedAvg.Aggregate(updates)
}

// Privacy runs at the site: every uplink a networked Server accepts from
// sites with a DeltaNormCap already lies within the cap of the round's
// task global, so no unclipped update ever reaches the server.
func TestServerSeesOnlyClippedUpdates(t *testing.T) {
	const normCap = 1e-3
	network := transport.NewMemNetwork()
	defer network.Close()
	initial := nn.SnapshotWeights(tinyClassifier(t, 1).Params())
	globals := []map[string]*tensor.Matrix{initial}
	agg := &clippedUplinks{}
	srv, err := NewServer(ServerConfig{
		ExpectedClients: 2, Rounds: 3, MinClients: 2, RegisterTimeout: 10 * time.Second,
		Aggregator: agg, VerifyToken: tokenFor, Logf: quietLogf, Listener: network,
		Validate: func(w map[string]*tensor.Matrix) (float64, error) {
			globals = append(globals, cloneWeights(w))
			return 0, nil
		},
	}, &provision.StartupKit{Role: provision.RoleServer, Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i, name := range []string{"site-a", "site-b"} {
		exec, err := NewClassifierExecutor(name, tinyClassifier(t, 1), tinyDataset(24, int64(i+2)), nil,
			LocalConfig{Epochs: 1, LR: 1e-2, BatchSize: 8, Seed: int64(i + 1), DeltaNormCap: normCap})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := NewClient(ClientConfig{Logf: quietLogf, Dialer: memDialer(network, name)},
			&provision.StartupKit{Role: provision.RoleClient, Name: name, Token: "tok-" + name}, exec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Run(); err != nil {
				t.Errorf("client %s: %v", name, err)
			}
		}()
	}
	_, err = srv.Run(initial)
	srv.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.rounds) != 3 {
		t.Fatalf("server aggregated %d rounds, want 3", len(agg.rounds))
	}
	clipped := 0
	for r, updates := range agg.rounds {
		if len(updates) != 2 {
			t.Fatalf("round %d accepted %d updates, want 2", r, len(updates))
		}
		for _, w := range updates {
			n := deltaNorm(t, w, globals[r])
			if n > normCap*(1+1e-9) {
				t.Fatalf("round %d: server accepted an update %v from its task global, above the site cap %v", r, n, normCap)
			}
			if n > normCap/2 {
				clipped++
			}
		}
	}
	if clipped == 0 {
		t.Fatal("test setup: no update came near the cap, so clipping was never exercised")
	}
}

type privacySettingCase struct {
	name string
	cfg  LocalConfig
	want string // "" accepts
}

// checkPrivacySettings builds both executor kinds with each case's
// LocalConfig: NewClassifierExecutor and NewMLMExecutor must refuse a privacy
// setting no site could honour, with a reason, before any site trains.
func checkPrivacySettings(t *testing.T, cases []privacySettingCase) {
	t.Helper()
	bc, err := model.NewBERT(model.BERTConfig{
		Name: "tinybert3", VocabSize: 32, MaxLen: 8, Dim: 8, Layers: 1, Heads: 1, NumClasses: 2,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		_, cerr := NewClassifierExecutor("site", tinyClassifier(t, 1), tinyDataset(4, 6), nil, tc.cfg)
		_, merr := NewMLMExecutor("site", bc, bc.Params(), [][]int{{token.CLS}}, mlm.DefaultConfig(32), tc.cfg)
		for kind, err := range map[string]error{"classifier": cerr, "mlm": merr} {
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s/%s: rejected a valid setting: %v", tc.name, kind, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s/%s: error %v, want one containing %q", tc.name, kind, err, tc.want)
			}
		}
	}
}

func TestNormCapFilterErrors(t *testing.T) {
	checkPrivacySettings(t, []privacySettingCase{
		{"off", LocalConfig{}, ""},
		{"on", LocalConfig{DeltaNormCap: 3}, ""},
		{"negative cap", LocalConfig{DeltaNormCap: -1}, "DeltaNormCap -1 must be a non-negative number"},
		{"NaN cap", LocalConfig{DeltaNormCap: math.NaN()}, "DeltaNormCap NaN must be a non-negative number"},
	})
}

func TestGaussianNoiseFilterErrors(t *testing.T) {
	checkPrivacySettings(t, []privacySettingCase{
		{"on", LocalConfig{DeltaNormCap: 3, NoiseSigma: 0.005}, ""},
		{"negative sigma", LocalConfig{NoiseSigma: -0.5}, "NoiseSigma -0.5 must be a finite non-negative number"},
		{"NaN sigma", LocalConfig{NoiseSigma: math.NaN()}, "NoiseSigma NaN must be a finite non-negative number"},
		{"infinite sigma", LocalConfig{NoiseSigma: math.Inf(1)}, "NoiseSigma +Inf must be a finite non-negative number"},
	})
}

// A NaN or infinite LR, ClipNorm or ProxMu is refused at construction,
// naming the field: otherwise it trains every round to non-finite weights
// the accept step refuses, or (ProxMu NaN) silently turns FedProx off. A
// negative value still means default or off.
func TestLocalConfigRefusesNonFiniteTraining(t *testing.T) {
	checkPrivacySettings(t, []privacySettingCase{
		{"negative knobs", LocalConfig{LR: -1, ClipNorm: -1, ProxMu: -1}, ""},
		{"finite knobs", LocalConfig{LR: 1e-2, ClipNorm: 1, ProxMu: 0.1}, ""},
		{"NaN LR", LocalConfig{LR: math.NaN()}, "LR NaN must be a finite number"},
		{"infinite LR", LocalConfig{LR: math.Inf(1)}, "LR +Inf must be a finite number"},
		{"negative infinite LR", LocalConfig{LR: math.Inf(-1)}, "LR -Inf must be a finite number"},
		{"NaN ClipNorm", LocalConfig{ClipNorm: math.NaN()}, "ClipNorm NaN must be a finite number"},
		{"infinite ClipNorm", LocalConfig{ClipNorm: math.Inf(1)}, "ClipNorm +Inf must be a finite number"},
		{"NaN ProxMu", LocalConfig{ProxMu: math.NaN()}, "ProxMu NaN must be a finite number"},
		{"infinite ProxMu", LocalConfig{ProxMu: math.Inf(1)}, "ProxMu +Inf must be a finite number"},
	})
}
