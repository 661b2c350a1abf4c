// Package fltest is the shared federation conformance kit: one declarative
// run spec, several interchangeable harnesses (the in-process Controller
// under the real or the simulator's virtual clock, and the networked
// Server over in-memory transport), and one suite of invariants that every
// harness must satisfy — quorum enforcement, straggler exclusion, late
// update handling, record consistency, FedAvg exactness, convergence on a
// linear task, and (for deterministic harnesses) bit-identical replay.
// Every future federation feature should land with its invariant expressed
// here once and enforced against all deployment shapes at once.
package fltest

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"clinfl/internal/fl"
	"clinfl/internal/provision"
	"clinfl/internal/sim"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

// ClientSpec describes one simulated client.
type ClientSpec struct {
	// Name is the client identity; Samples its aggregation weight.
	Name    string
	Samples int
	// Value is the canned model value: after "training" every weight
	// element equals Value, so aggregation results are exact rationals
	// the invariants can check precisely. Ignored for linear-task runs.
	Value float64
	// Delay postpones each round's update (virtual time under a virtual
	// harness, real time otherwise — keep it small).
	Delay time.Duration
	// FailRounds lists rounds on which the client's executor errors.
	FailRounds []int
	// FlakyRounds lists rounds on which only the FIRST execution attempt
	// errors; a re-dispatched retry succeeds. Meaningful with a
	// RunSpec.Reconcile policy — without one there is no second attempt.
	FlakyRounds []int
	// Malformed makes every update the client returns unusable in one of
	// the ways a buggy or hostile site can: "zero-samples" (NumSamples 0),
	// "wrong-shape" (one parameter transposed) or "extra-param" (a
	// parameter the global model does not have).
	Malformed string
	// Codec round-trips the client's updates through an uplink codec
	// ("raw", "f32", "topk:f"); empty means raw without byte stamping for
	// in-process harnesses and raw on the wire for the server harness.
	Codec string
}

// RunSpec is one declarative federation run.
type RunSpec struct {
	Rounds         int
	MinUpdates     int
	MinClients     int
	RoundDeadline  time.Duration
	SampleFraction float64
	// FedAsyncAlpha > 0 merges late updates FedAsync-style; 0 drops them.
	FedAsyncAlpha float64
	Seed          int64
	Clients       []ClientSpec
	// Reconcile, when non-nil, turns on the reconciliation control plane
	// (health state machine, requeue-with-backoff, probes) on whichever
	// harness runs the spec.
	Reconcile *fl.ReconcilePolicy
	// Linear, when non-nil, replaces canned values with real local
	// training on sharded linear regression (one shard per client, in
	// spec order), so convergence invariants have a learning signal.
	Linear *LinearSpec
	// Tier, when non-empty, routes the run through hierarchical streaming
	// aggregation with these fan-in widths (fl.TierConfig.Aggregators).
	// The controller harnesses shard in-process; the server harness
	// deploys Tier[0] real fl.Edge nodes over their own in-memory
	// networks, each fronting a contiguous shard of the roster.
	Tier []int
}

// LinearSpec configures a linear-task run: Seed pins the population.
type LinearSpec struct {
	Seed int64
}

// Harness runs a RunSpec on one deployment shape of the fl stack.
type Harness interface {
	// Name labels the harness in subtests.
	Name() string
	// Deterministic reports whether a fixed spec+seed reproduces History
	// bit-for-bit (true only under the virtual clock).
	Deterministic() bool
	// Run executes the federation and returns the controller/server
	// result.
	Run(spec RunSpec) (*fl.Result, error)
}

// Harnesses returns the full conformance matrix: the in-process
// Controller under the virtual and the real clock, and the networked
// Server over in-memory transport.
func Harnesses() []Harness {
	return []Harness{
		ControllerHarness{Virtual: true},
		ControllerHarness{},
		ServerHarness{},
	}
}

// InitialWeights is the starting model canned-value runs use.
func InitialWeights() map[string]*tensor.Matrix {
	return map[string]*tensor.Matrix{
		"layer.w": tensor.New(2, 3),
		"layer.b": tensor.New(1, 3),
	}
}

// ExpectedFedAvg is the exact sample-weighted average of the spec's canned
// values — what every harness's final model must equal after one or more
// full-participation FedAvg rounds.
func ExpectedFedAvg(clients []ClientSpec) float64 {
	var num, den float64
	for _, c := range clients {
		num += c.Value * float64(c.Samples)
		den += float64(c.Samples)
	}
	return num / den
}

// cannedExecutor is the canned-value client: an fl.Planner whose round
// maybe fails, else returns a model filled with Value, optionally
// round-tripped through its codec, arriving Delay after dispatch.
type cannedExecutor struct {
	spec  ClientSpec
	codec fl.WeightCodec
	shard *sim.LinearShard // non-nil for linear-task runs

	// attempts counts planned rounds per round, so FlakyRounds can fail
	// only the first one. Guarded for the server harness, where the
	// executor runs on a client goroutine while the spec may be inspected.
	mu       sync.Mutex
	attempts map[int]int
}

var (
	_ fl.Planner = (*cannedExecutor)(nil)
	_ fl.Prober  = (*cannedExecutor)(nil)
)

func newExecutor(spec ClientSpec, shard *sim.LinearShard) (*cannedExecutor, error) {
	codec, err := fl.CodecByName(spec.Codec)
	if err != nil {
		return nil, err
	}
	if spec.Codec == "" {
		codec = nil
	}
	return &cannedExecutor{spec: spec, codec: codec, shard: shard, attempts: make(map[int]int)}, nil
}

// Probe implements fl.Prober: the canned client is always reachable, so
// recovery probes succeed at once when the probe backoff admits them.
func (e *cannedExecutor) Probe() (time.Duration, error) { return 0, nil }

// Name implements fl.Executor.
func (e *cannedExecutor) Name() string { return e.spec.Name }

// numSamples is the client's shard size, or its spec's claim without one.
func (e *cannedExecutor) numSamples() int {
	if e.shard != nil {
		return e.shard.Samples()
	}
	return e.spec.Samples
}

// ExecuteRound implements fl.Executor for the real-time paths: the planned
// round, its Delay slept in wall time.
func (e *cannedExecutor) ExecuteRound(round int, global map[string]*tensor.Matrix) (*fl.ClientUpdate, error) {
	d, u, err := e.PlanRound(round, global)
	time.Sleep(d)
	return u, err
}

// PlanRound implements fl.Planner: the round's outcome, landing Delay after
// dispatch.
func (e *cannedExecutor) PlanRound(round int, global map[string]*tensor.Matrix) (time.Duration, *fl.ClientUpdate, error) {
	u, err := e.round(round, global)
	return e.spec.Delay, u, err
}

// round computes one round's outcome.
func (e *cannedExecutor) round(round int, global map[string]*tensor.Matrix) (*fl.ClientUpdate, error) {
	for _, r := range e.spec.FailRounds {
		if r == round {
			return nil, fmt.Errorf("fltest: %s scripted failure on round %d", e.spec.Name, round)
		}
	}
	e.mu.Lock()
	e.attempts[round]++
	attempt := e.attempts[round]
	e.mu.Unlock()
	for _, r := range e.spec.FlakyRounds {
		if r == round && attempt == 1 {
			return nil, fmt.Errorf("fltest: %s scripted flake on round %d attempt 1", e.spec.Name, round)
		}
	}
	var weights map[string]*tensor.Matrix
	loss := 1.0 / float64(round+1)
	if e.shard != nil {
		var err error
		weights, loss, err = e.shard.Train(global)
		if err != nil {
			return nil, err
		}
	} else {
		weights = make(map[string]*tensor.Matrix, len(global))
		for name, m := range global {
			w := tensor.New(m.Rows(), m.Cols())
			w.Fill(e.spec.Value)
			weights[name] = w
		}
	}
	u := &fl.ClientUpdate{
		ClientName: e.spec.Name, Round: round, Weights: weights,
		NumSamples: e.numSamples(), TrainLoss: loss,
	}
	switch e.spec.Malformed {
	case "":
	case "zero-samples":
		u.NumSamples = 0
	case "wrong-shape":
		w := weights["layer.w"]
		weights["layer.w"] = tensor.New(w.Cols(), w.Rows())
	case "extra-param":
		weights["layer.extra"] = tensor.New(1, 1)
	default:
		return nil, fmt.Errorf("fltest: unknown Malformed mode %q", e.spec.Malformed)
	}
	if e.codec != nil {
		blob, err := e.codec.Encode(weights)
		if err != nil {
			return nil, err
		}
		decoded, err := fl.DecodeWeights(blob)
		if err != nil {
			return nil, err
		}
		u.Weights = decoded
		u.PayloadBytes = len(blob)
	}
	return u, nil
}

// initialFor picks the starting model and shards for a spec.
func initialFor(spec RunSpec) (map[string]*tensor.Matrix, []*sim.LinearShard) {
	if spec.Linear == nil {
		return InitialWeights(), nil
	}
	pop := sim.NewPopulation(spec.Linear.Seed, len(spec.Clients))
	return sim.InitialLinearWeights(sim.LinearDim), pop.Shards
}

// ControllerHarness runs specs on the in-process fl.Controller, under the
// simulator's virtual clock when Virtual is set (deterministic, instant:
// every client round is a planned clock event) or the real wall clock
// otherwise. The real-clock harness hides the executors' Planner form, so
// the Controller runs each round on a goroutine the way it runs real
// training.
type ControllerHarness struct {
	Virtual bool
}

// blocking is a canned executor with its Planner form hidden.
type blocking struct {
	fl.Executor
	fl.Prober
}

// Name implements Harness.
func (h ControllerHarness) Name() string {
	if h.Virtual {
		return "controller-virtual"
	}
	return "controller-real"
}

// Deterministic implements Harness.
func (h ControllerHarness) Deterministic() bool { return h.Virtual }

// Run implements Harness.
func (h ControllerHarness) Run(spec RunSpec) (*fl.Result, error) {
	var clock fl.Clock = fl.RealClock()
	if h.Virtual {
		clock = sim.NewVirtualClock()
	}
	initial, shards := initialFor(spec)
	execs := make([]fl.Executor, len(spec.Clients))
	for i, cs := range spec.Clients {
		var shard *sim.LinearShard
		if shards != nil {
			shard = shards[i]
		}
		e, err := newExecutor(cs, shard)
		if err != nil {
			return nil, err
		}
		execs[i] = e
		if !h.Virtual {
			execs[i] = blocking{e, e}
		}
	}
	cfg := fl.ControllerConfig{
		Rounds:         spec.Rounds,
		MinUpdates:     spec.MinUpdates,
		MinClients:     spec.MinClients,
		RoundDeadline:  spec.RoundDeadline,
		SampleFraction: spec.SampleFraction,
		Seed:           spec.Seed,
		Clock:          clock,
		Reconcile:      spec.Reconcile,
	}
	if len(spec.Tier) > 0 {
		cfg.Tier = &fl.TierConfig{Aggregators: spec.Tier}
	}
	if spec.FedAsyncAlpha > 0 {
		cfg.AsyncAggregator = fl.FedAsync{Alpha: spec.FedAsyncAlpha}
	}
	ctrl, err := fl.NewController(cfg, execs)
	if err != nil {
		return nil, err
	}
	return ctrl.Run(context.Background(), initial)
}

// ServerHarness runs specs on the networked fl.Server: every client is a
// real fl.Client speaking the full registration/task/update protocol over
// an in-memory transport.MemNetwork link. It exercises codec negotiation,
// payload byte accounting, reader-goroutine delivery and the server-side
// task bookkeeping that in-process runs cannot.
type ServerHarness struct{}

// Name implements Harness.
func (ServerHarness) Name() string { return "server-memnet" }

// Deterministic implements Harness.
func (ServerHarness) Deterministic() bool { return false }

// Run implements Harness.
func (h ServerHarness) Run(spec RunSpec) (*fl.Result, error) {
	if len(spec.Tier) > 0 {
		return h.runTier(spec)
	}
	network := transport.NewMemNetwork()
	defer network.Close()
	allowTopK := false
	for _, c := range spec.Clients {
		if strings.HasPrefix(c.Codec, "topk") {
			allowTopK = true
		}
	}
	srv, err := fl.NewServer(fl.ServerConfig{
		ExpectedClients: len(spec.Clients),
		RegisterTimeout: 30 * time.Second,
		Rounds:          spec.Rounds,
		MinUpdates:      spec.MinUpdates,
		MinClients:      spec.MinClients,
		RoundDeadline:   spec.RoundDeadline,
		SampleFraction:  spec.SampleFraction,
		Seed:            spec.Seed,
		AllowTopKUplink: allowTopK,
		AsyncAggregator: asyncFor(spec),
		Reconcile:       spec.Reconcile,
		VerifyToken:     func(name, token string) bool { return token == "tok-"+name },
		Logf:            func(string, ...any) {},
		Listener:        network,
	}, &provision.StartupKit{Role: provision.RoleServer, Name: "server"})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	initial, shards := initialFor(spec)
	var wg sync.WaitGroup
	for i, cs := range spec.Clients {
		var shard *sim.LinearShard
		if shards != nil {
			shard = shards[i]
		}
		exec, err := newExecutor(cs, shard)
		if err != nil {
			return nil, err
		}
		// The wire handles codec framing; the executor must not
		// double-encode.
		exec.codec = nil
		name := cs.Name
		cl, err := fl.NewClient(fl.ClientConfig{
			Codec: cs.Codec,
			Logf:  func(string, ...any) {},
			Dialer: func() (transport.MessageConn, error) {
				return network.Dial(name, transport.LinkProfile{}, transport.LinkProfile{})
			},
		}, &provision.StartupKit{Role: provision.RoleClient, Name: name, Token: "tok-" + name}, exec)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Client errors are the server's to report: a scripted
			// executor failure or an aborted run surfaces in the Result's
			// failure records, which is what the suite asserts on.
			_, _ = cl.Run()
		}()
	}
	res, err := srv.Run(initial)
	srv.Close() // release clients still blocked on a dead run
	wg.Wait()
	return res, err
}

// runTier deploys the spec behind real fl.Edge nodes: Tier[0] edges
// register with the root server, each fronting a contiguous shard of the
// name-sorted roster over its own in-memory network. The server sees only
// the edges; exactness makes the final model bit-identical to the flat
// deployment of the same roster. fl.EdgeConfig has no MinUpdates or
// SampleFraction, so a spec that sets either is refused, naming the field,
// rather than run with every client while the controller harnesses sample.
func (ServerHarness) runTier(spec RunSpec) (*fl.Result, error) {
	if spec.MinUpdates != 0 {
		return nil, fmt.Errorf("fltest: server harness cannot run a tier with MinUpdates %d: its edges wait for every client", spec.MinUpdates)
	}
	if spec.SampleFraction != 0 {
		return nil, fmt.Errorf("fltest: server harness cannot run a tier with SampleFraction %v: its edges task every client", spec.SampleFraction)
	}
	rootNet := transport.NewMemNetwork()
	defer rootNet.Close()
	edges := spec.Tier[0]
	if edges > len(spec.Clients) {
		edges = len(spec.Clients)
	}
	deadline := spec.RoundDeadline
	if deadline <= 0 {
		deadline = 30 * time.Second
	}
	minClients := spec.MinClients
	if minClients > edges {
		minClients = edges
	}
	srv, err := fl.NewServer(fl.ServerConfig{
		ExpectedClients: edges,
		RegisterTimeout: 30 * time.Second,
		Rounds:          spec.Rounds,
		MinClients:      minClients,
		RoundDeadline:   spec.RoundDeadline,
		Seed:            spec.Seed,
		AsyncAggregator: asyncFor(spec),
		Reconcile:       spec.Reconcile,
		// The widths are the deployed Edges'; the root only merges.
		Tier:        true,
		VerifyToken: func(name, token string) bool { return token == "tok-"+name },
		Logf:        func(string, ...any) {},
		Listener:    rootNet,
	}, &provision.StartupKit{Role: provision.RoleServer, Name: "server"})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	initial, shards := initialFor(spec)
	// Contiguous shards of the name-sorted roster, mirroring the
	// controller harness's in-process shard map.
	order := make([]int, len(spec.Clients))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return spec.Clients[order[a]].Name < spec.Clients[order[b]].Name })

	var wg sync.WaitGroup
	for e := 0; e < edges; e++ {
		var shard []int
		for pos, idx := range order {
			if pos*edges/len(order) == e {
				shard = append(shard, idx)
			}
		}
		edgeNet := transport.NewMemNetwork()
		defer edgeNet.Close()
		edgeName := fmt.Sprintf("edge-%d", e)
		ed, err := fl.NewEdge(fl.EdgeConfig{
			Name:  edgeName,
			Token: "tok-" + edgeName,
			DialParent: func() (transport.MessageConn, error) {
				return rootNet.Dial(edgeName, transport.LinkProfile{}, transport.LinkProfile{})
			},
			Listener:        edgeNet,
			ExpectedClients: len(shard),
			RegisterTimeout: 30 * time.Second,
			VerifyToken:     func(name, token string) bool { return token == "tok-"+name },
			RoundDeadline:   deadline,
		})
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Edge failures surface as root-side round errors, which the
			// suite asserts on through the server Result.
			_, _ = ed.Run()
		}()
		for _, idx := range shard {
			cs := spec.Clients[idx]
			var lshard *sim.LinearShard
			if shards != nil {
				lshard = shards[idx]
			}
			exec, err := newExecutor(cs, lshard)
			if err != nil {
				return nil, err
			}
			exec.codec = nil
			name := cs.Name
			cl, err := fl.NewClient(fl.ClientConfig{
				Codec: cs.Codec,
				Logf:  func(string, ...any) {},
				Dialer: func() (transport.MessageConn, error) {
					return edgeNet.Dial(name, transport.LinkProfile{}, transport.LinkProfile{})
				},
			}, &provision.StartupKit{Role: provision.RoleClient, Name: name, Token: "tok-" + name}, exec)
			if err != nil {
				return nil, err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = cl.Run()
			}()
		}
	}
	res, err := srv.Run(initial)
	srv.Close() // release edges and clients still blocked on a dead run
	wg.Wait()
	return res, err
}

// asyncFor builds the spec's async aggregator.
func asyncFor(spec RunSpec) fl.AsyncAggregator {
	if spec.FedAsyncAlpha > 0 {
		return fl.FedAsync{Alpha: spec.FedAsyncAlpha}
	}
	return nil
}
