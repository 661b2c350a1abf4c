package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"clinfl/internal/fl"
	"clinfl/internal/tensor"
)

// ComputeProfile shapes per-client local-training speed.
type ComputeProfile struct {
	// Mean is the nominal per-round compute time (default 200ms of
	// virtual time); each client's base is drawn from [0.5, 1.5)×Mean.
	Mean time.Duration
	// Jitter adds a fresh uniform [0, Jitter) delay every round.
	Jitter time.Duration
	// StragglerFraction marks this fraction of clients as stragglers
	// whose compute is multiplied by StragglerFactor (default 20×).
	StragglerFraction float64
	StragglerFactor   float64
}

// withDefaults fills zero fields.
func (p ComputeProfile) withDefaults() ComputeProfile {
	if p.Mean <= 0 {
		p.Mean = 200 * time.Millisecond
	}
	if p.StragglerFactor <= 0 {
		p.StragglerFactor = 20
	}
	return p
}

// Every client's link costs each task download and update upload one
// link latency plus serialization time for its encoded bytes, so codec
// choices show up as round-time differences as they would on a real WAN.
// A client's latency is drawn from [0.5, 1.5)×linkLatency.
const (
	linkLatency     = 10 * time.Millisecond
	linkBytesPerSec = 20 << 20
)

// FaultProfile scripts client failures.
type FaultProfile struct {
	// FaultyFraction marks this fraction of clients as faulty.
	FaultyFraction float64
	// DropProb is a faulty client's per-round failure probability
	// (default 0.3 when FaultyFraction > 0).
	DropProb float64
	// DropRounds lists rounds on which every faulty client fails
	// outright (a correlated outage).
	DropRounds []int
}

// withDefaults fills zero fields.
func (p FaultProfile) withDefaults() FaultProfile {
	if p.FaultyFraction > 0 && p.DropProb == 0 && len(p.DropRounds) == 0 {
		p.DropProb = 0.3
	}
	return p
}

// FlapWave scripts a correlated connectivity outage: Fraction of the
// roster goes dark for the virtual-time window [From, Until) measured
// from run start. A dark client fails task execution immediately (the
// connection attempt costs one link latency) and fails recovery probes,
// then answers again once the wave passes — the signature workload of
// the reconciliation control plane (Scenario.Reconcile).
type FlapWave struct {
	// From / Until bound the outage window in virtual time since run
	// start (From inclusive, Until exclusive).
	From, Until time.Duration
	// Fraction of the roster affected. Waves pick their victims from the
	// same deterministic role shuffle as stragglers and faulty clients
	// (disjoint from both, roster permitting), so a larger wave's set is
	// a superset of a smaller one's.
	Fraction float64
}

// Scenario is the declarative spec of one simulated federation: N clients
// drawn from data/speed/fault/codec profiles, driving the unmodified
// fl.Controller round loop under a virtual clock.
type Scenario struct {
	// Name labels the scenario in output.
	Name string
	// Seed pins every random choice: datasets, speeds, fault draws,
	// client sampling. Two runs with the same spec and seed produce
	// byte-identical History at any GOMAXPROCS.
	Seed int64
	// Clients is N (default 8); Rounds is E (default 5).
	Clients, Rounds int

	// Federation knobs, passed to fl.ControllerConfig as they are, so
	// they mean and default the same as there (MinClients 0 is a floor
	// of one update) and fl.NewController refuses a bad one by name.
	SampleFraction float64
	MinUpdates     int
	MinClients     int
	RoundDeadline  time.Duration
	// FedAsyncAlpha, when > 0, merges stragglers' late updates with
	// staleness weighting; 0 drops them.
	FedAsyncAlpha float64
	// Validate scores every round's global model on the noise-free
	// holdout (score = -MSE) so History carries a convergence curve.
	Validate bool

	// Codecs cycles uplink codecs across clients by index ("raw", "f32",
	// "topk:0.1", ...); empty means raw everywhere. Task downloads are
	// raw.
	Codecs []string

	// RealClients, when in (0, Clients), enables client multiplexing:
	// only the first RealClients indices hold real data shards and run
	// real local training; every client above the cap is a surrogate that
	// replays calibrated compute-time and byte costs (see surrogate.go)
	// and submits its twin real client's update. Memory and CPU become
	// O(RealClients + sampled-per-round) instead of O(Clients), which is
	// what pushes deterministic scenarios past 100k clients. The system
	// trajectory (sampling, participation, deadlines, failures, bytes,
	// durations) is byte-identical to the fully-real run; model quality is
	// the approximation the surrogate calibration test bounds. 0 (or >=
	// Clients) keeps every client real.
	RealClients int

	// Reconcile, when non-nil, runs the controller with the
	// reconciliation control plane: health state machines, requeued
	// task re-assignment, probes and parking. Nil runs the same round
	// loop under the null policy (one attempt per assignment).
	Reconcile *fl.ReconcilePolicy
	// Tier, when non-empty, runs rounds through hierarchical streaming
	// aggregation with these fan-in widths (fl.TierConfig.Aggregators):
	// updates fold into edge-shard partials as they arrive and the root
	// holds O(model) state regardless of Clients. Incompatible with
	// FedAsyncAlpha and Reconcile (fl validates the combination).
	Tier []int
	// Flaps scripts correlated connectivity outages (see FlapWave).
	Flaps []FlapWave

	// Population profiles.
	Compute ComputeProfile
	Faults  FaultProfile
}

// withDefaults fills zero fields.
func (sc Scenario) withDefaults() Scenario {
	if sc.Name == "" {
		sc.Name = "scenario"
	}
	if sc.Clients <= 0 {
		sc.Clients = 8
	}
	if sc.Rounds <= 0 {
		sc.Rounds = 5
	}
	sc.Compute = sc.Compute.withDefaults()
	sc.Faults = sc.Faults.withDefaults()
	return sc
}

// RunResult is one simulated federation's outcome plus simulator stats.
type RunResult struct {
	// Result is the controller's output, exactly as a real federation
	// would report it; Result.History under the virtual clock carries
	// deterministic virtual durations.
	Result *fl.Result
	// VirtualElapsed is the simulated wall time of the whole federation;
	// RealElapsed is what it actually cost.
	VirtualElapsed, RealElapsed time.Duration
	// BytesUp / BytesDown total the encoded weight payload bytes moved
	// up- and downlink (8-byte frame headers included), summed over all
	// clients including stragglers whose updates arrived late or never.
	BytesUp, BytesDown int64
	// Stragglers / Faulty / Flapping name the clients the profiles and
	// flap waves marked.
	Stragglers, Faulty, Flapping []string
	// InitialMSE / FinalMSE score the zero model and the final global
	// model on the noise-free holdout.
	InitialMSE, FinalMSE float64
}

// HistoryJSON renders the run's History in a canonical (indented,
// key-stable) form — the byte string golden determinism tests compare.
func (r *RunResult) HistoryJSON() ([]byte, error) {
	return json.MarshalIndent(r.Result.History, "", "  ")
}

// simClient is one scenario client: an fl.Planner whose round pays virtual
// time for task download, local compute, and update upload, and fails per
// its fault script — planned at dispatch and delivered as one clock event,
// so the roster needs no goroutine per client. A real client (twin == nil
// surrogate path off) trains its own shard and round-trips its update
// through its uplink codec for byte accounting and honest quantization
// loss; a surrogate client replays calibrated byte costs and its twin's
// training result instead — same virtual-time trajectory, none of the
// per-client data or codec work.
type simClient struct {
	name      string
	clock     Clock
	shard     *LinearShard // nil for surrogates
	codec     fl.WeightCodec
	codecName string

	// twin and costs are set only on surrogates.
	twin  *twinState
	costs *CostModel

	computeBase time.Duration
	jitter      time.Duration
	latency     time.Duration

	faulty     bool
	dropProb   float64
	dropRounds []int
	seed       uint64 // per-client draw-stream seed (see surrogate.go)

	// start anchors the client's flap windows; flaps lists the waves
	// covering this client (empty for most of the roster).
	start time.Time
	flaps []FlapWave

	bytesUp, bytesDown *atomic.Int64
}

var (
	_ fl.Executor = (*simClient)(nil)
	_ fl.Planner  = (*simClient)(nil)
	_ fl.Prober   = (*simClient)(nil)
)

// Name implements fl.Executor.
func (c *simClient) Name() string { return c.name }

// transfer returns the virtual time one message of n payload bytes costs.
func (c *simClient) transfer(n int) time.Duration {
	return c.latency + time.Duration(int64(n+8)*int64(time.Second)/linkBytesPerSec)
}

// down reports whether a flap wave covers the client at virtual now.
func (c *simClient) down(now time.Time) bool {
	since := now.Sub(c.start)
	for _, w := range c.flaps {
		if since >= w.From && since < w.Until {
			return true
		}
	}
	return false
}

// Probe implements fl.Prober, planned at dispatch: a flapping client is
// unreachable while a wave covers it (the failure lands one link latency
// later) and answers one round trip later once it has passed.
func (c *simClient) Probe() (time.Duration, error) {
	if c.down(c.clock.Now()) {
		return c.latency, fmt.Errorf("sim: %s unreachable (connectivity flap)", c.name)
	}
	return 2 * c.latency, nil
}

// PlanRound implements fl.Planner and is the one definition of a client's
// round timeline, computed at dispatch: task download, local compute, then
// the update upload, returning the offset from now at which the outcome
// reaches the server. Flap windows are checked at dispatch and at the end
// of compute, both instants known up front.
func (c *simClient) PlanRound(round int, global map[string]*tensor.Matrix) (time.Duration, *fl.ClientUpdate, error) {
	now := c.clock.Now()
	// A dark client fails the connection attempt outright: one link
	// latency, no download or compute.
	if c.down(now) {
		return c.latency, nil, fmt.Errorf("sim: %s down (connectivity flap) on round %d", c.name, round)
	}

	// Task download: real clients encode the actual global weights;
	// surrogates replay the calibrated size (exact — the codecs are
	// shape-determined), so both pay identical virtual transfer time.
	downBytes := 0
	if c.twin != nil {
		downBytes = c.costs.DownBytes
	} else {
		downBlob, err := fl.EncodeWeights(global)
		if err != nil {
			return 0, nil, fmt.Errorf("sim: %s encode task: %w", c.name, err)
		}
		downBytes = len(downBlob)
	}
	c.bytesDown.Add(int64(downBytes + 8))
	d := c.transfer(downBytes) + c.computeBase
	if c.jitter > 0 {
		d += time.Duration(unitDraw(c.seed, streamJitter, uint64(round)) * float64(c.jitter))
	}

	if c.down(now.Add(d)) {
		// A wave opened while the task was in flight: the upload is lost.
		return d, nil, fmt.Errorf("sim: %s dropped mid-round (connectivity flap) on round %d", c.name, round)
	}
	if c.drops(round) {
		return d, nil, fmt.Errorf("sim: %s faulted on round %d", c.name, round)
	}

	if c.twin != nil {
		// Surrogate: replay the twin's training result (computed once per
		// twin per round, handed out read-only) and the calibrated uplink
		// byte cost. No codec round-trip — the quantization noise a lossy
		// codec would add is part of the bounded surrogate error.
		weights, loss, err := c.twin.result(round, global)
		if err != nil {
			return d, nil, fmt.Errorf("sim: %s surrogate train: %w", c.name, err)
		}
		upBytes := c.costs.UpBytes[c.codecName]
		c.bytesUp.Add(int64(upBytes + 8))
		return d + c.transfer(upBytes), &fl.ClientUpdate{
			ClientName:   c.name,
			Round:        round,
			Weights:      weights,
			NumSamples:   c.twin.samples,
			TrainLoss:    loss,
			PayloadBytes: upBytes,
			DownBytes:    downBytes,
		}, nil
	}

	weights, loss, err := c.shard.Train(global)
	if err != nil {
		return d, nil, err
	}
	blob, err := c.codec.Encode(weights)
	if err != nil {
		return d, nil, fmt.Errorf("sim: %s encode update: %w", c.name, err)
	}
	c.bytesUp.Add(int64(len(blob) + 8))
	d += c.transfer(len(blob))
	decoded, err := fl.DecodeWeights(blob)
	if err != nil {
		return d, nil, fmt.Errorf("sim: %s decode update: %w", c.name, err)
	}
	return d, &fl.ClientUpdate{
		ClientName:   c.name,
		Round:        round,
		Weights:      decoded,
		NumSamples:   c.shard.Samples(),
		TrainLoss:    loss,
		PayloadBytes: len(blob),
		DownBytes:    downBytes,
	}, nil
}

// ExecuteRound implements fl.Executor: the planned outcome without its
// offset. The Controller always plans a simClient's round, so nothing
// calls this on a virtual clock.
func (c *simClient) ExecuteRound(round int, global map[string]*tensor.Matrix) (*fl.ClientUpdate, error) {
	_, u, err := c.PlanRound(round, global)
	return u, err
}

// drops decides whether this round fails, from the client's fault script.
func (c *simClient) drops(round int) bool {
	if !c.faulty {
		return false
	}
	for _, r := range c.dropRounds {
		if r == round {
			return true
		}
	}
	return c.dropProb > 0 && unitDraw(c.seed, streamDrop, uint64(round)) < c.dropProb
}

// scenarioSetup is one materialized scenario: the population, the
// executor roster bound to a clock, and the controller config. The soak
// harness rebuilds it per crash segment — the same spec and seed always
// materialize the same roster, so a restarted segment's clients are pure
// re-executions of the crashed one's.
type scenarioSetup struct {
	pop        *Population
	execs      []fl.Executor
	cfg        fl.ControllerConfig
	bytesUp    *atomic.Int64
	bytesDown  *atomic.Int64
	stragglers []string
	faulty     []string
	flapping   []string
	initial    map[string]*tensor.Matrix
}

// build materializes the scenario's deterministic population and roster
// under the given clock. Every random choice is a pure function of the
// spec and seed; the clock only carries virtual time. With RealClients
// set, only the real prefix gets data shards — population generation is a
// fixed-order stream (truth, holdout, shards by index), so the real
// subset's shards are bit-identical to the first RealClients shards of
// the fully-real run.
func (sc Scenario) build(clock Clock) (*scenarioSetup, error) {
	nReal := sc.Clients
	if sc.RealClients > 0 && sc.RealClients < sc.Clients {
		nReal = sc.RealClients
	}
	pop := NewPopulation(sc.Seed, nReal)
	var costs *CostModel
	var twins []*twinState
	var err error
	if nReal < sc.Clients {
		if costs, err = calibrateCosts(sc, pop); err != nil {
			return nil, err
		}
		twins = make([]*twinState, nReal)
		for i, shard := range pop.Shards {
			twins[i] = &twinState{shard: shard, samples: shard.Samples()}
		}
	}
	set := &scenarioSetup{pop: pop, bytesUp: new(atomic.Int64), bytesDown: new(atomic.Int64)}

	// Role assignment: one deterministic shuffle of the client indices,
	// stragglers from the front, faulty clients right after (disjoint).
	rng := tensor.NewRNG(sc.Seed + 104729)
	order := make([]int, sc.Clients)
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	nStrag := int(sc.Compute.StragglerFraction * float64(sc.Clients))
	nFaulty := int(sc.Faults.FaultyFraction * float64(sc.Clients))
	if nStrag+nFaulty > sc.Clients {
		nFaulty = sc.Clients - nStrag
	}
	isStraggler := make(map[int]bool, nStrag)
	isFaulty := make(map[int]bool, nFaulty)
	for _, i := range order[:nStrag] {
		isStraggler[i] = true
	}
	for _, i := range order[nStrag : nStrag+nFaulty] {
		isFaulty[i] = true
	}
	// Flap victims come from the same shuffle, right after the faulty
	// block — no extra RNG draws, so legacy scenarios' populations are
	// untouched. Each wave covers a prefix of the pool, so a larger
	// wave's set strictly contains a smaller one's.
	flapPool := order[nStrag+nFaulty:]
	flapsFor := make(map[int][]FlapWave)
	for _, w := range sc.Flaps {
		n := int(w.Fraction * float64(sc.Clients))
		if n > len(flapPool) {
			n = len(flapPool)
		}
		for _, i := range flapPool[:n] {
			flapsFor[i] = append(flapsFor[i], w)
		}
	}

	// Codec objects are shared across clients (stateless), so a 100k-client
	// roster allocates one codec per distinct name, not per client.
	codecByName := map[string]fl.WeightCodec{}
	set.execs = make([]fl.Executor, sc.Clients)
	for i := 0; i < sc.Clients; i++ {
		name := fmt.Sprintf("site-%03d", i)
		codecName := ""
		if len(sc.Codecs) > 0 {
			codecName = sc.Codecs[i%len(sc.Codecs)]
		}
		codec, ok := codecByName[codecName]
		if !ok {
			if codec, err = fl.CodecByName(codecName); err != nil {
				return nil, err
			}
			codecByName[codecName] = codec
		}
		// Per-client randomness (speed, link, jitter, faults) comes from an
		// O(1)-memory hash stream keyed on (scenario seed, client index) —
		// see surrogate.go — so a client's draws are identical whether its
		// neighbors are real or surrogate, and 100k clients cost 8 bytes of
		// RNG state each instead of a ~5KB math/rand source.
		cseed := clientSeed(sc.Seed, i)
		base := time.Duration((0.5 + unitDraw(cseed, streamComputeBase, 0)) * float64(sc.Compute.Mean))
		if isStraggler[i] {
			base = time.Duration(float64(base) * sc.Compute.StragglerFactor)
			set.stragglers = append(set.stragglers, name)
		}
		if isFaulty[i] {
			set.faulty = append(set.faulty, name)
		}
		if len(flapsFor[i]) > 0 {
			set.flapping = append(set.flapping, name)
		}
		c := &simClient{
			name:        name,
			clock:       clock,
			codec:       codec,
			codecName:   codecName,
			computeBase: base,
			jitter:      sc.Compute.Jitter,
			latency:     time.Duration((0.5 + unitDraw(cseed, streamLatency, 0)) * float64(linkLatency)),
			faulty:      isFaulty[i],
			dropProb:    sc.Faults.DropProb,
			dropRounds:  sc.Faults.DropRounds,
			seed:        cseed,
			start:       clock.Now(),
			flaps:       flapsFor[i],
			bytesUp:     set.bytesUp,
			bytesDown:   set.bytesDown,
		}
		if i < nReal {
			c.shard = pop.Shards[i]
		} else {
			c.twin = twins[i%nReal]
			c.costs = costs
		}
		set.execs[i] = c
	}
	sort.Strings(set.stragglers)
	sort.Strings(set.faulty)
	sort.Strings(set.flapping)

	set.cfg = fl.ControllerConfig{
		Rounds:         sc.Rounds,
		MinClients:     sc.MinClients,
		SampleFraction: sc.SampleFraction,
		MinUpdates:     sc.MinUpdates,
		RoundDeadline:  sc.RoundDeadline,
		Seed:           sc.Seed,
		Clock:          clock,
		Reconcile:      sc.Reconcile,
	}
	if sc.FedAsyncAlpha > 0 {
		set.cfg.AsyncAggregator = fl.FedAsync{Alpha: sc.FedAsyncAlpha}
	}
	if len(sc.Tier) > 0 {
		set.cfg.Tier = &fl.TierConfig{Aggregators: sc.Tier}
	}
	if sc.Validate {
		set.cfg.Validate = func(w map[string]*tensor.Matrix) (float64, error) {
			mse, err := pop.Eval(w)
			return -mse, err
		}
	}
	set.initial = InitialLinearWeights(LinearDim)
	return set, nil
}

// Run executes the scenario under a fresh virtual clock and returns the
// federation result plus simulator stats.
func (sc Scenario) Run() (*RunResult, error) {
	sc = sc.withDefaults()
	clock := NewVirtualClock()
	realStart := time.Now()
	set, err := sc.build(clock)
	if err != nil {
		return nil, err
	}
	res, err := sc.run(clock, set)
	if err != nil {
		return nil, err
	}
	res.RealElapsed = time.Since(realStart)
	return res, nil
}

// run drives a built scenario's roster through the controller on clock,
// which must still be at the instant the roster was built.
func (sc Scenario) run(clock *VirtualClock, set *scenarioSetup) (*RunResult, error) {
	start := clock.Now()
	res := &RunResult{Stragglers: set.stragglers, Faulty: set.faulty, Flapping: set.flapping}
	var err error
	res.InitialMSE, err = set.pop.Eval(set.initial)
	if err != nil {
		return nil, err
	}
	ctrl, err := fl.NewController(set.cfg, set.execs)
	if err != nil {
		return nil, err
	}
	out, err := ctrl.Run(context.Background(), set.initial)
	if err != nil {
		return nil, fmt.Errorf("sim: scenario %s: %w", sc.Name, err)
	}
	// Let stragglers still in flight deliver in virtual time, so no event
	// is left pending and VirtualElapsed spans the whole federation.
	clock.Drain()

	res.Result = out
	res.VirtualElapsed = clock.Since(start)
	res.BytesUp = set.bytesUp.Load()
	res.BytesDown = set.bytesDown.Load()
	res.FinalMSE, err = set.pop.Eval(out.FinalWeights)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ScaleScenario is the acceptance-scale spec: 200 clients × 20 rounds
// with 10% stragglers (20× slower than the deadline allows), 5% faulty
// clients, mixed raw/f32 codecs, deadline-based partial aggregation and
// FedAsync late merging. Under the virtual clock it simulates roughly an
// hour of federation wall time in a couple of seconds of real time.
func ScaleScenario(seed int64) Scenario {
	return Scenario{
		Name:           "scale-200",
		Seed:           seed,
		Clients:        200,
		Rounds:         20,
		SampleFraction: 0.5,
		MinUpdates:     80,
		MinClients:     20,
		RoundDeadline:  2 * time.Second,
		FedAsyncAlpha:  0.5,
		Validate:       true,
		Codecs:         []string{"raw", "f32"},
		Compute: ComputeProfile{
			Mean:              200 * time.Millisecond,
			Jitter:            100 * time.Millisecond,
			StragglerFraction: 0.10,
			StragglerFactor:   20,
		},
		Faults: FaultProfile{FaultyFraction: 0.05, DropProb: 0.3},
	}
}

// TierScenario is the hierarchical-aggregation spec: clients clients (10k
// in the pinned digest test) fold through a 64-edge, 8-regional tier into
// the root, with surrogate multiplexing keeping training cost at 64 real
// shards. Full participation and no faults: every round's tier accounting
// (TierPartials, TierBytesUp, TierResidentBytes) is exercised at scale,
// and TierResidentBytes is the memory-independence evidence — it tracks
// the model size, not the roster size.
func TierScenario(seed int64, clients int) Scenario {
	return Scenario{
		Name:        "tier",
		Seed:        seed,
		Clients:     clients,
		Rounds:      8,
		RealClients: 64,
		MinClients:  1,
		Validate:    true,
		Tier:        []int{64, 8},
		Compute: ComputeProfile{
			Mean:   100 * time.Millisecond,
			Jitter: 50 * time.Millisecond,
		},
	}
}

// Golden16Scenario is the pinned mixed-codec spec behind the golden
// determinism test: 16 clients, every codec in the negotiation set, a
// deadline tight enough to strand its stragglers, and fault injection on.
// Do not re-tune casually — its History JSON is checked in byte-for-byte.
func Golden16Scenario() Scenario {
	return Scenario{
		Name:           "golden-16",
		Seed:           42,
		Clients:        16,
		Rounds:         6,
		SampleFraction: 0.75,
		MinUpdates:     8,
		MinClients:     4,
		RoundDeadline:  1500 * time.Millisecond,
		FedAsyncAlpha:  0.5,
		Validate:       true,
		Codecs:         []string{"raw", "f32", "topk:0.25"},
		Compute: ComputeProfile{
			Mean:              150 * time.Millisecond,
			Jitter:            50 * time.Millisecond,
			StragglerFraction: 0.25,
			StragglerFactor:   15,
		},
		Faults: FaultProfile{FaultyFraction: 0.125, DropProb: 0.25},
	}
}
