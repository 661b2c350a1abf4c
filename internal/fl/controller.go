package fl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"clinfl/internal/fl/durable"
	"clinfl/internal/fl/hier"
	"clinfl/internal/fl/reconcile"
	"clinfl/internal/metrics"
	"clinfl/internal/tensor"
)

// ControllerConfig parameterizes the server-side scatter-and-gather
// workflow. The zero value (plus Rounds) reproduces the paper's fully
// synchronous federation; SampleFraction, MinUpdates and RoundDeadline
// progressively relax it toward a production asynchronous one.
type ControllerConfig struct {
	// Rounds is E, the number of communication rounds (Fig. 1).
	Rounds int
	// MinClients is the quorum required per round; fewer successful
	// updates fail the round. 0 means all sampled clients must respond
	// (or, when MinUpdates is set, that many).
	MinClients int
	// SampleFraction selects a random subset of clients each round
	// (production FL's partial participation). Values in (0, 1) sample
	// ceil(fraction * N) of the idle clients; 0 or >= 1 uses them all.
	SampleFraction float64
	// MinUpdates, when > 0, aggregates as soon as this many updates have
	// arrived instead of waiting for every sampled client — the fast path
	// of NVFlare's wait_time_after_min_received. 0 waits for all sampled.
	MinUpdates int
	// RoundDeadline bounds one round's gather: when it fires, whatever
	// has arrived (subject to MinClients) is aggregated and the
	// stragglers' eventual updates are handled by the staleness policy
	// below. 0 falls back to RoundTimeout.
	RoundDeadline time.Duration
	// RoundTimeout is the legacy name for RoundDeadline (0 = no limit).
	RoundTimeout time.Duration
	// AsyncAggregator, when non-nil, folds late updates (stragglers from
	// round r arriving during round r' > r) into the global model with
	// staleness weighting (FedAsync). Nil drops late updates.
	AsyncAggregator AsyncAggregator
	// Seed drives the per-round client sampling stream.
	Seed int64
	// Aggregator combines updates (default FedAvg).
	Aggregator Aggregator
	// Filters run over every client update before aggregation (NVFlare's
	// privacy-filter chain); nil means no filtering.
	Filters []Filter
	// Validate, if non-nil, scores each round's aggregated model; the
	// controller keeps the best-scoring weights as the selected model
	// (NVFlare's IntimeModelSelector).
	Validate func(weights map[string]*tensor.Matrix) (float64, error)
	// Patience, when > 0 and Validate is set, stops the run early after
	// this many consecutive rounds without a new best validation score.
	Patience int
	// Clock supplies round timestamps, gather deadlines, and the
	// goroutines carrying client work. Nil means the real wall clock;
	// internal/sim injects a deterministic virtual clock here so scenarios
	// with hours of simulated straggling replay identically in
	// milliseconds of real time.
	Clock Clock
	// WAL, when non-nil, makes the run durable: every round lifecycle
	// event (round open, task assignment, update receipt, model commit)
	// is appended as it happens and group-committed by the WAL's
	// background syncer, and Run resumes from the WAL's recovered state —
	// the last committed model, plus any open round's already-received
	// updates — instead of initialWeights.
	// A crashed run restarted over the same WAL (with the same executors
	// and config) converges to the same final model as an uninterrupted
	// one, because updates are stored at full precision and aggregation
	// order is canonical.
	WAL *durable.WAL
	// Metrics, when non-nil, receives round/byte/failure/straggler
	// counters and the round-duration histogram. Nil disables metrics at
	// zero cost.
	Metrics *metrics.Registry
	// Reconcile, when non-nil, turns on the reconciliation control
	// plane: failed task assignments are requeued with backoff and
	// re-dispatched (same client or a substitute) within the round
	// deadline, repeated failures demote clients out of the sample pool
	// until a recovery probe succeeds, and a round starved below quorum
	// degrades (FedAsync partial finalize) or parks awaiting probes
	// instead of failing. Nil preserves the legacy single-shot behavior.
	Reconcile *ReconcilePolicy
	// Tier, when non-nil, routes rounds through hierarchical streaming
	// aggregation (see TierConfig): updates fold into O(model) partials
	// at edge shards as they arrive instead of buffering per-client
	// weight maps at the root. Nil keeps the legacy flat path
	// bit-for-bit unchanged.
	Tier *TierConfig
}

// withDefaults fills zero fields.
func (c ControllerConfig) withDefaults(numClients int) ControllerConfig {
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	if c.MinClients <= 0 || c.MinClients > numClients {
		c.MinClients = numClients
		if c.MinUpdates > 0 && c.MinUpdates < numClients {
			// Partial aggregation on: the quorum floor follows the early
			// trigger, not the full roster.
			c.MinClients = c.MinUpdates
		}
	}
	if c.RoundDeadline <= 0 {
		c.RoundDeadline = c.RoundTimeout
	}
	if c.Aggregator == nil {
		c.Aggregator = FedAvg{}
	}
	if c.Clock == nil {
		c.Clock = RealClock()
	}
	return c
}

// RoundRecord captures one communication round for the run history.
type RoundRecord struct {
	Round int
	// MeanTrainLoss averages the participating clients' local losses,
	// weighted by sample count.
	MeanTrainLoss float64
	// ValScore is the post-aggregation validation score (NaN if no
	// validator configured).
	ValScore float64
	// Sampled lists the clients tasked this round (all clients when
	// sampling is off).
	Sampled []string
	// Participants lists clients whose updates were aggregated in-round.
	Participants []string
	// LateApplied lists stale updates from earlier rounds folded into the
	// global model this round via the AsyncAggregator.
	LateApplied []string
	// LateDropped lists stale updates discarded this round (no
	// AsyncAggregator configured).
	LateDropped []string
	// Failures records per-client send/receive/training errors as
	// "client: error" strings; a failed client is never silently absent.
	Failures []string
	// Reassigned records every reconciliation re-dispatch this round as
	// "origin>target" — origin is the client originally sampled for the
	// slot ("probe" for a parked round re-tasking a revived client),
	// target the client that received the retry. A retry to the same
	// client reads "a>a".
	Reassigned []string
	// Degraded marks a round finalized below MinUpdates under mass
	// failure (FedAsync partial finalize, at or above quorum — or below
	// it when parking could not revive enough clients).
	Degraded bool
	// BytesUp / BytesDown are the round's weight-payload bytes: encoded
	// update payloads received / task payloads sent. Populated by the
	// networked server from real payload sizes; in-process, BytesUp comes
	// from PayloadBytes (stamped by a CodecSimFilter or the executor) and
	// BytesDown from executors that stamp ClientUpdate.DownBytes (the
	// simulator's cost-accounting clients).
	BytesUp, BytesDown int64
	// Duration is the wall-clock round time.
	Duration time.Duration
	// TierPartials counts the partial aggregates that crossed tier hops
	// this round (hierarchical aggregation only; omitted when zero so
	// legacy histories stay byte-identical).
	TierPartials int `json:",omitempty"`
	// TierBytesUp is the encoded-partial bytes those hops carried.
	TierBytesUp int64 `json:",omitempty"`
	// TierResidentBytes is the root's resident aggregation state at
	// finalize — the O(model) quantity, independent of client count.
	TierResidentBytes int64 `json:",omitempty"`
}

// History is the full federated run record.
type History struct {
	Rounds []RoundRecord
	// BestRound holds the round index whose validation score was highest
	// (-1 when no validation was configured).
	BestRound int
	// BestScore is the corresponding score.
	BestScore float64
	// FinishFailures records clients the final-model broadcast could not
	// reach (networked server only).
	FinishFailures []string
	// WireBytesRead / WireBytesWritten are the run's total framed bytes
	// on the wire across all client connections — headers, metadata and
	// gob overhead included, unlike the per-round payload counters
	// (networked server only).
	WireBytesRead, WireBytesWritten int64
}

// Result is the controller's output: the final and selected models plus
// the run history.
type Result struct {
	// FinalWeights is the last round's aggregated model.
	FinalWeights map[string]*tensor.Matrix
	// BestWeights is the highest-validation-score model (== FinalWeights
	// when no validator is configured).
	BestWeights map[string]*tensor.Matrix
	History     History
	// Health snapshots every tracked client's final reconciliation state
	// (nil when no ReconcilePolicy was configured).
	Health map[string]string
}

// execOutcome carries one executor's result, tagged with the round it was
// tasked for so stragglers finishing after their round's deadline are
// recognized as late.
type execOutcome struct {
	update *ClientUpdate
	err    error
	name   string
	round  int
	// probe marks a recovery-probe result (err nil = the demoted client
	// answered) rather than a round execution.
	probe bool
}

// Controller drives the federated run over a set of executors in-process
// (NVFlare simulator mode: every client is a goroutine rather than a
// remote site; the networked deployment in server.go shares this logic).
type Controller struct {
	cfg       ControllerConfig
	executors []Executor

	// results is the run-long gather channel: buffered so a straggler
	// finishing rounds later never blocks, even after Run returns.
	results chan execOutcome
	// inFlight marks executors still working on a previous round's task;
	// they are excluded from sampling until their outcome arrives.
	inFlight map[string]bool
	rng      *tensor.RNG
	met      flMetrics
	// mon / pol are the reconciliation state machine and its resolved
	// policy; nil mon means the legacy single-shot round loop.
	mon    *reconcile.Monitor
	pol    ReconcilePolicy
	byName map[string]Executor
	// tierShards recycles the tier path's edge-shard partials across
	// rounds (Reset keeps each one's O(model) slabs warm), so a round's
	// aggregation state is allocated once per run, not once per round.
	tierShards []*hier.Partial
}

// NewController builds a controller over executors.
func NewController(cfg ControllerConfig, executors []Executor) (*Controller, error) {
	if len(executors) == 0 {
		return nil, errors.New("fl: controller needs at least one executor")
	}
	if err := validateTier(cfg.Tier, cfg.Aggregator, cfg.AsyncAggregator,
		cfg.Filters, cfg.WAL, cfg.Reconcile); err != nil {
		return nil, err
	}
	names := make(map[string]bool, len(executors))
	byName := make(map[string]Executor, len(executors))
	for _, e := range executors {
		if names[e.Name()] {
			return nil, fmt.Errorf("fl: duplicate executor name %q", e.Name())
		}
		names[e.Name()] = true
		byName[e.Name()] = e
	}
	c := &Controller{
		cfg:       cfg.withDefaults(len(executors)),
		executors: executors,
		// Each executor has at most one task outcome and one probe
		// outcome outstanding (it is never re-tasked until its previous
		// outcome drains, and an in-flight probe never re-fires), so two
		// slots per executor guarantee senders never block, even for
		// stragglers finishing after Run returns.
		results:  make(chan execOutcome, 2*len(executors)),
		inFlight: make(map[string]bool, len(executors)),
		rng:      tensor.NewRNG(cfg.Seed + 7919),
		met:      newFLMetrics(cfg.Metrics),
		byName:   byName,
	}
	if cfg.Reconcile != nil {
		c.pol = cfg.Reconcile.withDefaults()
		c.mon = c.pol.monitor()
	}
	return c, nil
}

// Run executes the scatter-and-gather workflow for E rounds starting from
// initialWeights, honoring ctx cancellation between rounds.
func (c *Controller) Run(ctx context.Context, initialWeights map[string]*tensor.Matrix) (*Result, error) {
	global := cloneWeights(initialWeights)
	res := &Result{History: History{BestRound: -1}}
	sinceBest := 0

	// A durable run picks up where the WAL left off: the last committed
	// model replaces initialWeights, and a round that was open at the
	// crash is resumed — its recorded updates re-seeded, only the pending
	// clients re-executed.
	startRound := 0
	var resume *durable.OpenRound
	if c.cfg.WAL != nil {
		st := c.cfg.WAL.Recovered()
		if st.Records > 0 {
			c.met.reg.Counter("fl_recoveries_total", "runs resumed from a non-empty WAL").Inc()
		}
		if st.Weights != nil {
			global = cloneWeights(st.Weights)
		}
		startRound = st.LastRound + 1
		if st.Open != nil {
			startRound = st.Open.Round
			resume = st.Open
		}
		// Replayed quarantine decisions take effect before any sampling:
		// a crash must not resurrect a quarantined client into the pool.
		if c.mon != nil {
			for name, state := range st.Health {
				if state == reconcile.Quarantined.String() {
					c.mon.SetQuarantined(name)
				}
			}
			c.met.syncHealthGauges(c.mon)
		}
	}

	for round := startRound; round < c.cfg.Rounds; round++ {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("fl: cancelled before round %d: %w", round, ctx.Err())
		default:
		}
		start := c.cfg.Clock.Now()
		rec := RoundRecord{Round: round}
		if c.cfg.Tier != nil {
			// Hierarchical path: updates stream into edge-shard partials as
			// they arrive and merge up the tiers; the root never holds
			// per-client weight maps.
			var err error
			global, err = c.tierRound(ctx, round, global, &rec)
			if err != nil {
				return nil, err
			}
			rec.Duration = c.cfg.Clock.Since(start)
		} else {
			updates, late, err := c.scatterGather(ctx, round, global, &rec, resume)
			resume = nil
			if err != nil {
				return nil, err
			}
			global, err = finalizeRound(c.cfg.Filters, c.cfg.Aggregator, c.cfg.AsyncAggregator,
				updates, late, round, global, &rec)
			if err != nil {
				return nil, err
			}

			rec.Duration = c.cfg.Clock.Since(start)
			var lossSum, weightSum float64
			for _, u := range updates {
				rec.Participants = append(rec.Participants, u.ClientName)
				rec.BytesUp += int64(u.PayloadBytes)
				rec.BytesDown += int64(u.DownBytes)
				lossSum += u.TrainLoss * float64(u.NumSamples)
				weightSum += float64(u.NumSamples)
			}
			if weightSum > 0 {
				rec.MeanTrainLoss = lossSum / weightSum
			}
		}
		if c.cfg.WAL != nil {
			// The commit point: once RecModelCommit is durable (group
			// committed by the syncer, settled by Close) a restart starts
			// at round+1 and never re-runs this round.
			if err := c.cfg.WAL.AppendRoundFinal(round, rec.Participants); err != nil {
				return nil, fmt.Errorf("fl: round %d: %w", round, err)
			}
			if err := c.cfg.WAL.AppendModelCommit(round, global); err != nil {
				return nil, fmt.Errorf("fl: round %d: %w", round, err)
			}
		}
		c.met.roundDone(&rec)
		if c.cfg.Validate != nil {
			score, err := c.cfg.Validate(global)
			if err != nil {
				return nil, fmt.Errorf("fl: round %d validate: %w", round, err)
			}
			rec.ValScore = score
			if res.History.BestRound < 0 || score > res.History.BestScore {
				res.History.BestRound = round
				res.History.BestScore = score
				res.BestWeights = cloneWeights(global)
				sinceBest = 0
			} else {
				sinceBest++
			}
		}
		res.History.Rounds = append(res.History.Rounds, rec)
		if c.cfg.Patience > 0 && c.cfg.Validate != nil && sinceBest >= c.cfg.Patience {
			break // early stop: no validation improvement for Patience rounds
		}
	}
	res.FinalWeights = global
	if res.BestWeights == nil {
		res.BestWeights = cloneWeights(global)
	}
	if c.mon != nil {
		res.Health = c.mon.Snapshot()
	}
	return res, nil
}

// sampleClients picks this round's participants among executors that are
// not still busy with an earlier round's task (and, under a
// ReconcilePolicy, are health-eligible — Unreachable/Quarantined clients
// stay out of the pool until a probe succeeds; with every executor
// demoted the sample is empty and the caller parks the round).
func (c *Controller) sampleClients() ([]Executor, error) {
	idle := make([]Executor, 0, len(c.executors))
	allDemoted := c.mon != nil
	for _, ex := range c.executors {
		if c.inFlight[ex.Name()] {
			continue
		}
		if c.mon != nil && !c.mon.Eligible(ex.Name()) {
			continue
		}
		allDemoted = false
		idle = append(idle, ex)
	}
	if allDemoted {
		return nil, nil // mass failure: park rather than error
	}
	if len(idle) == 0 {
		return nil, errors.New("fl: no idle clients to sample (every executor is a straggler)")
	}
	if c.cfg.SampleFraction <= 0 || c.cfg.SampleFraction >= 1 {
		return idle, nil
	}
	k := int(math.Ceil(float64(len(c.executors)) * c.cfg.SampleFraction))
	if k < 1 {
		k = 1
	}
	if k > len(idle) {
		k = len(idle)
	}
	c.rng.Shuffle(len(idle), func(i, j int) { idle[i], idle[j] = idle[j], idle[i] })
	return idle[:k], nil
}

// finalizeRound runs the shared end-of-round aggregation for both the
// in-process controller and the networked server: the filter chain over the
// in-round updates, the batch aggregate, then the filter chain and the
// staleness-weighted merge for each late update. Late updates pass through
// the same filters before they can reach the global model — privacy filters
// (clipping, DP noise) must see every merged update, stale or not — against
// this round's starting weights, the closest surviving reference. A late
// update that fails filtering, shape-checking, or merging lands in
// rec.Failures and is skipped: one straggler's bad payload must not abort
// the federation.
//
// Both update batches are sorted into a canonical order (in-round by client
// name, late by round then name) before any floating-point accumulation, so
// the aggregated model is a pure function of the participating set: the
// order updates happened to arrive — a race under the real clock — can
// never change the global weights, and fixed-seed simulator runs reproduce
// bit-identically at any GOMAXPROCS.
func finalizeRound(filters []Filter, agg Aggregator, async AsyncAggregator,
	updates, late []*ClientUpdate, round int, global map[string]*tensor.Matrix, rec *RoundRecord) (map[string]*tensor.Matrix, error) {
	sort.Slice(updates, func(i, j int) bool { return updates[i].ClientName < updates[j].ClientName })
	sort.Slice(late, func(i, j int) bool {
		if late[i].Round != late[j].Round {
			return late[i].Round < late[j].Round
		}
		return late[i].ClientName < late[j].ClientName
	})
	if err := applyFilters(filters, updates, global); err != nil {
		return nil, fmt.Errorf("fl: round %d: %w", round, err)
	}
	var merged []*ClientUpdate
	for _, lu := range late {
		if err := applyFilters(filters, []*ClientUpdate{lu}, global); err != nil {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: late update: %v", lu.ClientName, err))
			continue
		}
		merged = append(merged, lu)
	}
	next, err := agg.Aggregate(updates)
	if err != nil {
		return nil, fmt.Errorf("fl: round %d aggregate: %w", round, err)
	}
	// Stragglers' updates merge after the in-round aggregate so the fresh
	// average is never clobbered. The shape pre-check keeps a mismatched
	// update from partially mutating the model inside Apply; LateApplied
	// records a merge only once it actually reached the global model.
	for _, lu := range merged {
		if err := checkShapes(next, lu); err != nil {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: late update: %v", lu.ClientName, err))
			continue
		}
		if err := async.Apply(next, lu, round-lu.Round); err != nil {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: late merge: %v", lu.ClientName, err))
			continue
		}
		rec.LateApplied = append(rec.LateApplied, lu.ClientName)
		rec.BytesUp += int64(lu.PayloadBytes)
		rec.BytesDown += int64(lu.DownBytes)
	}
	return next, nil
}

// checkShapes verifies an update covers every global parameter with
// matching dimensions.
func checkShapes(global map[string]*tensor.Matrix, u *ClientUpdate) error {
	for name, g := range global {
		w, ok := u.Weights[name]
		if !ok {
			return fmt.Errorf("missing param %q", name)
		}
		if w.Rows() != g.Rows() || w.Cols() != g.Cols() {
			return fmt.Errorf("param %q shape %dx%d, want %dx%d",
				name, w.Rows(), w.Cols(), g.Rows(), g.Cols())
		}
	}
	return nil
}

// scatterGather runs one round: the sampled executors train concurrently
// on the current global model; updates are gathered until all sampled
// clients respond, MinUpdates arrive, or the round deadline fires.
// Outcomes from earlier rounds' stragglers drain through the same channel
// and are returned as late updates (to merge via the AsyncAggregator) or
// recorded as dropped.
// When resume is non-nil (WAL recovery), the round's recorded updates are
// re-seeded instead of re-trained and only the tasked-but-unheard clients
// execute; executors are pure functions of (round, global), so the resumed
// round aggregates exactly what the uninterrupted one would have.
func (c *Controller) scatterGather(ctx context.Context, round int, global map[string]*tensor.Matrix, rec *RoundRecord, resume *durable.OpenRound) ([]*ClientUpdate, []*ClientUpdate, error) {
	// Drain stragglers that finished between rounds first, so they become
	// idle (sample-able) again and their updates enter this round's
	// staleness handling instead of rotting in the channel.
	var late []*ClientUpdate
drain:
	for {
		select {
		case o := <-c.results:
			if err := c.absorbStale(o, round, rec, &late); err != nil {
				return nil, nil, err
			}
		default:
			break drain
		}
	}

	var sampled []Executor
	var preSeeded []*ClientUpdate
	if resume != nil {
		seeded := make(map[string]bool, len(resume.Updates))
		for _, u := range resume.Updates {
			cu, err := recoveredUpdate(u, round)
			if err != nil {
				// Lost, not fatal: the client re-executes below like any
				// other tasked-but-unheard one.
				rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", u.Client, err))
				c.met.failure("reject")
				continue
			}
			preSeeded = append(preSeeded, cu)
			seeded[u.Client] = true
		}
		for _, name := range resume.Tasked {
			rec.Sampled = append(rec.Sampled, name)
			if seeded[name] {
				continue
			}
			ex, ok := c.byName[name]
			if !ok {
				rec.Failures = append(rec.Failures, fmt.Sprintf("%s: tasked before crash, absent after restart", name))
				c.met.failure("conn")
				continue
			}
			if c.mon != nil && !c.mon.Eligible(name) {
				// Quarantined by a replayed health record: the pre-crash
				// task assignment does not override the quarantine.
				rec.Failures = append(rec.Failures, fmt.Sprintf("%s: quarantined, not re-tasked on resume", name))
				c.met.failure("exec")
				continue
			}
			sampled = append(sampled, ex)
		}
	} else {
		var err error
		sampled, err = c.sampleClients()
		if err != nil {
			return nil, nil, fmt.Errorf("fl: round %d: %w", round, err)
		}
		if c.mon != nil && len(sampled) == 0 {
			// Mass failure: every executor is demoted. Park the round
			// until recovery probes readmit someone instead of failing.
			if err := c.parkUntilEligible(ctx, round, rec, &late); err != nil {
				return nil, nil, err
			}
			if sampled, err = c.sampleClients(); err != nil {
				return nil, nil, fmt.Errorf("fl: round %d: %w", round, err)
			}
		}
		for _, ex := range sampled {
			rec.Sampled = append(rec.Sampled, ex.Name())
		}
		if c.cfg.WAL != nil {
			if err := c.cfg.WAL.AppendRoundOpen(round); err != nil {
				return nil, nil, fmt.Errorf("fl: round %d: %w", round, err)
			}
			// Task assignments from a resumed round are already on disk.
			for _, ex := range sampled {
				if err := c.cfg.WAL.AppendTaskAssigned(round, ex.Name()); err != nil {
					return nil, nil, fmt.Errorf("fl: round %d: %w", round, err)
				}
			}
		}
	}
	// No fsync barrier before the executors start: file order gives the
	// WAL a durable prefix (an fsync covering this round's open covers
	// the previous commit too), and a lost suffix re-executes the round
	// deterministically. The background syncer flushes the scatter while
	// the executors train.
	for _, ex := range sampled {
		c.dispatch(ex, round, global)
	}

	tasked := len(sampled) + len(preSeeded)
	quorum := c.cfg.MinClients
	if quorum > tasked {
		quorum = tasked
	}
	minUpdates := c.cfg.MinUpdates
	if minUpdates <= 0 || minUpdates > tasked {
		minUpdates = tasked
	}
	if minUpdates < quorum {
		// An early aggregate below the quorum would always fail it; wait
		// for the quorum before cutting the round short.
		minUpdates = quorum
	}

	updates := preSeeded
	pending := len(sampled)
	if c.mon != nil {
		return c.reconcileGather(ctx, round, global, rec, sampled, updates, late, pending, quorum, minUpdates)
	}
	deadlineAt, deadlineCh := gatherDeadline(c.cfg.Clock, c.cfg.RoundDeadline)
gather:
	for pending > 0 && len(updates) < minUpdates {
		o, status := waitRecv(c.cfg.Clock, c.results, ctx.Done(), deadlineAt, deadlineCh)
		switch status {
		case waitDeadline:
			// Stragglers stay in flight; their updates surface as late
			// outcomes in a future round's gather (NVFlare's
			// wait_time_after_min_received semantics, made durable).
			c.met.stragglers.Add(int64(pending))
			break gather
		case waitCancelled:
			return nil, nil, fmt.Errorf("fl: round %d cancelled: %w", round, ctx.Err())
		}
		delete(c.inFlight, o.name)
		switch {
		case o.err != nil:
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", o.name, o.err))
			c.met.failure("exec")
			if o.round == round {
				pending--
			}
		case o.round == round:
			pending--
			if c.cfg.WAL != nil {
				// Lazy append, group-committed by the WAL's syncer. A
				// crash that loses it re-executes the client on resume —
				// either way the round's participant set is consistent on
				// disk and in memory.
				if err := c.cfg.WAL.AppendUpdate(round, o.name, o.update.NumSamples,
					o.update.TrainLoss, o.update.PayloadBytes, o.update.Weights); err != nil {
					return nil, nil, fmt.Errorf("fl: round %d: %w", round, err)
				}
			}
			updates = append(updates, o.update)
		case c.cfg.AsyncAggregator != nil:
			late = append(late, o.update)
		default:
			rec.LateDropped = append(rec.LateDropped, o.name)
		}
	}
	if len(updates) < quorum {
		return nil, nil, fmt.Errorf("fl: round %d quorum not met: %d/%d updates (failures: %v)",
			round, len(updates), quorum, rec.Failures)
	}
	return updates, late, nil
}

// recoveredUpdate turns an update replayed from the WAL into the
// ClientUpdate a resumed round aggregates, whichever record kind logged
// it: a RecUpdate's weights as they are, a RecUpdatePayload's uplink
// through DecodeWeights — the very decode the live round aggregated, so
// the resumed aggregate is bit-identical. An error means the payload no
// longer decodes; callers treat the update as never received.
func recoveredUpdate(u *durable.Update, round int) (*ClientUpdate, error) {
	weights := u.Weights
	if weights == nil {
		var err error
		if weights, err = DecodeWeights(u.Payload); err != nil {
			return nil, fmt.Errorf("update recovered from WAL unusable: %w", err)
		}
	}
	return &ClientUpdate{
		ClientName: u.Client, Round: round, Weights: weights,
		NumSamples: u.NumSamples, TrainLoss: u.TrainLoss,
		PayloadBytes: u.PayloadBytes,
	}, nil
}

// dispatch starts one executor on the round's task.
func (c *Controller) dispatch(ex Executor, round int, global map[string]*tensor.Matrix) {
	c.inFlight[ex.Name()] = true
	c.cfg.Clock.Go(func() {
		u, err := ex.ExecuteRound(round, global)
		c.results <- execOutcome{update: u, err: err, name: ex.Name(), round: round}
	})
}

// dispatchProbe starts a recovery probe of a demoted client. Executors
// implementing Prober are actually probed; the rest trivially succeed —
// for an in-process executor there is nothing to check beyond waiting
// out the probe backoff.
func (c *Controller) dispatchProbe(name string) {
	ex := c.byName[name]
	c.cfg.Clock.Go(func() {
		var err error
		if p, ok := ex.(Prober); ok {
			err = p.Probe()
		}
		c.results <- execOutcome{name: name, err: err, probe: true}
	})
}

// healthEdge records a health transition in metrics and — for the
// durable pool-membership edges, quarantine entry and the rejoin
// clearing it — in the WAL.
func (c *Controller) healthEdge(round int, tr reconcile.Transition) error {
	if !tr.Changed() {
		return nil
	}
	c.met.healthTransition(c.mon, tr)
	if c.cfg.WAL != nil && (tr.To == reconcile.Quarantined || tr.From == reconcile.Quarantined) {
		if err := c.cfg.WAL.AppendHealth(round, tr.Client, tr.To.String()); err != nil {
			return fmt.Errorf("fl: round %d: %w", round, err)
		}
	}
	return nil
}

// absorbStale handles an outcome that is not part of the current round's
// gather: recovery-probe results and previous rounds' stragglers
// (failures, late updates). Shared by the between-rounds drain and the
// parked-round wait.
func (c *Controller) absorbStale(o execOutcome, round int, rec *RoundRecord, late *[]*ClientUpdate) error {
	if o.probe {
		res := "ok"
		if o.err != nil {
			res = "fail"
		}
		c.met.probe(res)
		tr := c.mon.ProbeResult(o.name, o.err == nil, c.cfg.Clock.Now())
		return c.healthEdge(round, tr)
	}
	delete(c.inFlight, o.name)
	var tr reconcile.Transition
	switch {
	case o.err != nil:
		rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", o.name, o.err))
		c.met.failure("exec")
		if c.mon != nil {
			tr = c.mon.Observe(o.name, false, c.cfg.Clock.Now())
		}
	case c.cfg.AsyncAggregator != nil:
		*late = append(*late, o.update)
		if c.mon != nil {
			tr = c.mon.Observe(o.name, true, c.cfg.Clock.Now())
		}
	default:
		rec.LateDropped = append(rec.LateDropped, o.name)
		if c.mon != nil {
			tr = c.mon.Observe(o.name, true, c.cfg.Clock.Now())
		}
	}
	if c.mon != nil {
		return c.healthEdge(round, tr)
	}
	return nil
}

// parkUntilEligible blocks a round whose sample pool is empty (every
// executor demoted — mass failure) until a recovery probe readmits
// someone, bounded by MaxPark. Straggler outcomes arriving meanwhile are
// absorbed like the between-rounds drain.
func (c *Controller) parkUntilEligible(ctx context.Context, round int, rec *RoundRecord, late *[]*ClientUpdate) error {
	c.met.parked.Inc()
	parkDeadline := c.cfg.Clock.Now().Add(c.pol.MaxPark)
	for {
		now := c.cfg.Clock.Now()
		for _, ex := range c.executors {
			if !c.inFlight[ex.Name()] && c.mon.Eligible(ex.Name()) {
				return nil
			}
		}
		if !now.Before(parkDeadline) {
			return fmt.Errorf("fl: round %d: no eligible clients after parking %v (every executor demoted; failures so far: %v)",
				round, c.pol.MaxPark, rec.Failures)
		}
		for _, name := range c.mon.DueProbes(now) {
			c.dispatchProbe(name)
		}
		wake := parkDeadline
		if at := c.mon.NextProbeAt(); !at.IsZero() && at.Before(wake) {
			wake = at
		}
		at, ch := wakeChan(c.cfg.Clock, wake)
		o, status := waitRecv(c.cfg.Clock, c.results, ctx.Done(), at, ch)
		switch status {
		case waitCancelled:
			return fmt.Errorf("fl: round %d cancelled: %w", round, ctx.Err())
		case waitDeadline:
			continue
		}
		if err := c.absorbStale(o, round, rec, late); err != nil {
			return err
		}
	}
}

// reconcileGather is the reconciliation-aware replacement for the legacy
// gather loop: failed assignments are requeued with backoff and
// re-dispatched (to the same client, or — with Substitute — an idle
// eligible one) until the round deadline; demoted clients are probed and
// may be re-tasked on recovery; and a round that can no longer reach its
// aggregate trigger degrades (FedAsync partial finalize) or parks
// awaiting probes, bounded by MaxPark, instead of deadlocking.
func (c *Controller) reconcileGather(ctx context.Context, round int, global map[string]*tensor.Matrix, rec *RoundRecord,
	sampled []Executor, updates, late []*ClientUpdate, pending, quorum, minUpdates int) ([]*ClientUpdate, []*ClientUpdate, error) {
	var roundDeadlineAt time.Time
	if c.cfg.RoundDeadline > 0 {
		roundDeadlineAt = c.cfg.Clock.Now().Add(c.cfg.RoundDeadline)
	}
	rq := reconcile.NewQueue()
	// assignment maps each in-flight executor to its current task so a
	// failure knows the slot's attempt count and original owner.
	assignment := make(map[string]reconcile.Task, len(sampled))
	for _, ex := range sampled {
		assignment[ex.Name()] = reconcile.Task{Client: ex.Name(), Round: round, Attempt: 1, Origin: ex.Name()}
	}
	participated := make(map[string]bool, len(updates))
	for _, u := range updates {
		participated[u.ClientName] = true
	}
	inSampled := make(map[string]bool, len(rec.Sampled))
	for _, n := range rec.Sampled {
		inSampled[n] = true
	}

	// redispatch hands a ready task to its client — or, when that client
	// is busy, demoted, or already counted, to the first idle eligible
	// substitute in roster order (deterministic). A task with no viable
	// target is abandoned; its triggering failure is already recorded.
	redispatch := func(t reconcile.Task) error {
		target := t.Client
		if c.inFlight[target] || participated[target] || !c.mon.Eligible(target) {
			target = ""
			if c.pol.Substitute {
				for _, ex := range c.executors {
					n := ex.Name()
					if !c.inFlight[n] && !participated[n] && c.mon.Eligible(n) {
						target = n
						break
					}
				}
			}
		}
		if target == "" {
			return nil
		}
		assignment[target] = reconcile.Task{Client: target, Round: round, Attempt: t.Attempt, Origin: t.Origin}
		rec.Reassigned = append(rec.Reassigned, t.Origin+">"+target)
		if !inSampled[target] {
			inSampled[target] = true
			rec.Sampled = append(rec.Sampled, target)
		}
		if c.cfg.WAL != nil {
			if err := c.cfg.WAL.AppendTaskAssigned(round, target); err != nil {
				return fmt.Errorf("fl: round %d: %w", round, err)
			}
		}
		c.dispatch(c.byName[target], round, global)
		pending++
		return nil
	}

	deadlineFired := false
	parked := false
	var parkDeadline time.Time
	for {
		now := c.cfg.Clock.Now()
		if !deadlineFired && !roundDeadlineAt.IsZero() && !now.Before(roundDeadlineAt) {
			deadlineFired = true
			c.met.stragglers.Add(int64(pending))
			// Queued retries die with the deadline; the failures that
			// queued them are already in rec.Failures, so nothing is
			// silently lost.
			rq.Drain()
		}
		if len(updates) >= minUpdates {
			break
		}
		if deadlineFired && len(updates) >= quorum {
			break
		}
		if parked && !now.Before(parkDeadline) {
			// Parking budget exhausted: degrade if the async path can
			// finalize a partial round, else fall through to the quorum
			// check below.
			break
		}
		if !deadlineFired {
			for _, t := range rq.Due(now) {
				if err := redispatch(t); err != nil {
					return nil, nil, err
				}
			}
		}
		for _, name := range c.mon.DueProbes(now) {
			c.dispatchProbe(name)
		}
		if pending == 0 && rq.Len() == 0 {
			// Starved: nothing in flight, nothing queued, below the
			// trigger. Recoverable only if probes are running or
			// scheduled; otherwise give up now.
			if !c.mon.Probing() && c.mon.NextProbeAt().IsZero() {
				break
			}
			if !parked {
				parked = true
				parkDeadline = now.Add(c.pol.MaxPark)
				c.met.parked.Inc()
			}
		}
		var wake time.Time
		earliest := func(t time.Time) {
			if !t.IsZero() && (wake.IsZero() || t.Before(wake)) {
				wake = t
			}
		}
		if !deadlineFired {
			earliest(roundDeadlineAt)
			earliest(rq.NextAt())
		}
		earliest(c.mon.NextProbeAt())
		if parked {
			earliest(parkDeadline)
		}
		at, ch := wakeChan(c.cfg.Clock, wake)
		o, status := waitRecv(c.cfg.Clock, c.results, ctx.Done(), at, ch)
		switch status {
		case waitDeadline:
			continue
		case waitCancelled:
			return nil, nil, fmt.Errorf("fl: round %d cancelled: %w", round, ctx.Err())
		}
		now = c.cfg.Clock.Now()
		if o.probe {
			res := "ok"
			if o.err != nil {
				res = "fail"
			}
			c.met.probe(res)
			tr := c.mon.ProbeResult(o.name, o.err == nil, now)
			if err := c.healthEdge(round, tr); err != nil {
				return nil, nil, err
			}
			if o.err == nil {
				// Revived mid-round: if the round still cannot reach its
				// trigger with what is in flight and queued, task the
				// recovered client (the parked-round resume path).
				need := minUpdates
				if deadlineFired {
					need = quorum
				}
				if len(updates)+pending+rq.Len() < need && !participated[o.name] && !c.inFlight[o.name] {
					if err := redispatch(reconcile.Task{Client: o.name, Round: round, Attempt: 1, Origin: "probe"}); err != nil {
						return nil, nil, err
					}
				}
			}
			continue
		}
		delete(c.inFlight, o.name)
		t, assigned := assignment[o.name]
		if assigned {
			delete(assignment, o.name)
		}
		switch {
		case o.err != nil:
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", o.name, o.err))
			c.met.failure("exec")
			tr := c.mon.Observe(o.name, false, now)
			if err := c.healthEdge(round, tr); err != nil {
				return nil, nil, err
			}
			if o.round == round {
				pending--
				if assigned && !deadlineFired && t.Attempt < c.pol.MaxAssignAttempts {
					readyAt := now.Add(c.pol.RequeueBackoff.Delay(t.Attempt - 1))
					if roundDeadlineAt.IsZero() || readyAt.Before(roundDeadlineAt) {
						rq.Add(reconcile.Task{Client: t.Client, Round: round, Attempt: t.Attempt + 1, Origin: t.Origin}, readyAt)
						c.met.requeues.Inc()
					}
				}
			}
		case o.round == round:
			pending--
			tr := c.mon.Observe(o.name, true, now)
			if err := c.healthEdge(round, tr); err != nil {
				return nil, nil, err
			}
			if c.cfg.WAL != nil {
				if err := c.cfg.WAL.AppendUpdate(round, o.name, o.update.NumSamples,
					o.update.TrainLoss, o.update.PayloadBytes, o.update.Weights); err != nil {
					return nil, nil, fmt.Errorf("fl: round %d: %w", round, err)
				}
			}
			updates = append(updates, o.update)
			participated[o.name] = true
		case c.cfg.AsyncAggregator != nil:
			tr := c.mon.Observe(o.name, true, now)
			if err := c.healthEdge(round, tr); err != nil {
				return nil, nil, err
			}
			late = append(late, o.update)
		default:
			tr := c.mon.Observe(o.name, true, now)
			if err := c.healthEdge(round, tr); err != nil {
				return nil, nil, err
			}
			rec.LateDropped = append(rec.LateDropped, o.name)
		}
	}
	if len(updates) < quorum {
		// Mass failure left the round short. The async path finalizes
		// what it has as a degraded partial round — FedAsync already
		// tolerates weight drift from missing participants — provided at
		// least one update arrived; the synchronous path must fail.
		if c.cfg.AsyncAggregator != nil && len(updates) > 0 {
			rec.Degraded = true
			c.met.degraded.Inc()
			return updates, late, nil
		}
		return nil, nil, fmt.Errorf("fl: round %d quorum not met after reconciliation: %d/%d updates (failures: %v)",
			round, len(updates), quorum, rec.Failures)
	}
	if len(updates) < minUpdates {
		// At or above quorum but short of the trigger: the deadline or
		// the parking budget cut a mass-failure round short.
		rec.Degraded = true
		c.met.degraded.Inc()
	}
	return updates, late, nil
}

// cloneWeights deep-copies a weight map.
func cloneWeights(w map[string]*tensor.Matrix) map[string]*tensor.Matrix {
	out := make(map[string]*tensor.Matrix, len(w))
	for name, m := range w {
		out[name] = m.Clone()
	}
	return out
}
