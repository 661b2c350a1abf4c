package fl

import (
	"context"
	"errors"
	"fmt"
	"time"

	"clinfl/internal/fl/durable"
	"clinfl/internal/metrics"
	"clinfl/internal/tensor"
)

// ControllerConfig parameterizes the server-side scatter-and-gather
// workflow. The zero value (plus Rounds) reproduces the paper's fully
// synchronous federation; SampleFraction, MinUpdates and RoundDeadline
// progressively relax it toward a production asynchronous one. The round
// settings mean the same as on ServerConfig, and NewController refuses a
// bad one by name, as NewServer does.
type ControllerConfig struct {
	// Rounds is E, the number of communication rounds (Fig. 1); 0 runs
	// one round.
	Rounds int
	// MinClients is the quorum required per round; fewer successful
	// updates fail the round. 0 is a floor of one update (NVFlare's
	// min_clients), so a failed client alone never fails a round. At most
	// the executor count.
	MinClients int
	// SampleFraction selects a random subset of clients each round
	// (production FL's partial participation). Values in (0, 1) sample
	// ceil(fraction * N) of the idle clients; 0 or 1 uses them all. Values
	// outside [0, 1], NaN included, are refused.
	SampleFraction float64
	// MinUpdates, when > 0, aggregates as soon as this many updates have
	// arrived instead of waiting for every sampled client — the fast path
	// of NVFlare's wait_time_after_min_received. 0 waits for all sampled.
	// At most the executor count.
	MinUpdates int
	// RoundDeadline bounds one round's gather: when it fires, whatever
	// has arrived (subject to MinClients) is aggregated and the
	// stragglers' eventual updates are handled by the staleness policy
	// below. 0 means no limit; Reconcile needs one.
	RoundDeadline time.Duration
	// AsyncAggregator, when non-nil, folds late updates (stragglers from
	// round r arriving during round r' > r) into the global model with
	// staleness weighting (FedAsync). Nil drops late updates.
	AsyncAggregator AsyncAggregator
	// Seed drives the per-round client sampling stream.
	Seed int64
	// Aggregator combines updates (default FedAvg).
	Aggregator Aggregator
	// Validate, if non-nil, scores each round's aggregated model; the
	// controller keeps the best-scoring weights as the selected model
	// (NVFlare's IntimeModelSelector).
	Validate func(weights map[string]*tensor.Matrix) (float64, error)
	// Clock supplies round timestamps, gather deadlines, and the arrival of
	// planned work (a Planner's round, a Prober's answer) through
	// AfterFunc. Nil means the real wall clock, under which any other
	// executor runs on a plain goroutine. internal/sim injects a
	// deterministic virtual clock here so scenarios with hours of
	// simulated straggling replay identically in milliseconds of real
	// time; on such a Waiter clock every executor must be a Planner.
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
	// instead of failing. It needs a RoundDeadline, which bounds every
	// retry. Nil runs the same round loop under the null policy: one
	// attempt per assignment, no health tracking.
	Reconcile *ReconcilePolicy
	// Tier, when non-nil, routes rounds through hierarchical streaming
	// aggregation (see TierConfig): updates fold into O(model) partials
	// at edge shards as they arrive instead of buffering per-client
	// weight maps at the root. Nil keeps the legacy flat path
	// bit-for-bit unchanged.
	Tier *TierConfig
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
	// from the PayloadBytes an executor stamps when it encodes its update
	// through a codec, as the simulator's and fltest's clients do, and
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
	// on the wire across all client connections — each frame's length
	// header and envelope (sender, round, metadata) included, unlike the
	// per-round payload counters (networked server only).
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
	id     int
	round  int
	// probe marks a recovery-probe result (err nil = the demoted client
	// answered) rather than a round execution.
	probe bool
}

// Controller drives the federated run over a set of executors in-process
// (NVFlare simulator mode: every client is a goroutine or a planned clock
// event rather than a remote site). The round lifecycle is the shared
// engine in round.go; the Controller is its in-process backend, turning
// task requests into one AfterFunc event for a Planner (an executor
// goroutine otherwise), probe requests into one AfterFunc event each, and
// their outcomes into events. An executor's roster id is its index in the
// executor list.
type Controller struct {
	executors []Executor
	eng       *engine

	// results is the run-long gather channel: buffered so a straggler
	// finishing rounds later never blocks, even after Run returns.
	results chan execOutcome
	source[execOutcome]
	// inFlight marks, by id, executors still working on a task; they are
	// excluded from sampling until their outcome arrives.
	inFlight []bool
	// round / global are the task the engine's current round hands out.
	round  int
	global map[string]*tensor.Matrix
}

// NewController builds a controller over executors. It refuses a round
// setting no front end can run, naming the field.
func NewController(cfg ControllerConfig, executors []Executor) (*Controller, error) {
	if len(executors) == 0 {
		return nil, errors.New("fl: controller needs at least one executor")
	}
	_, virtual := cfg.Clock.(Waiter)
	ros := newRoster(len(executors))
	for i, e := range executors {
		if ros.add(e.Name()) != i {
			return nil, fmt.Errorf("fl: duplicate executor name %q", e.Name())
		}
		if _, ok := e.(Planner); virtual && !ok {
			// Its round would block a goroutine the virtual clock cannot
			// see, so no deterministic order could include it.
			return nil, fmt.Errorf("fl: executor %q (%T) is not a Planner and cannot run on a virtual clock", e.Name(), e)
		}
	}
	ros.byName() // the roster's one sort
	rc := roundConfig{
		clients: len(executors),
		rounds:  cfg.Rounds, minClients: cfg.MinClients, minUpdates: cfg.MinUpdates,
		sampleFraction: cfg.SampleFraction, deadline: cfg.RoundDeadline, seed: cfg.Seed,
		aggregator: cfg.Aggregator, async: cfg.AsyncAggregator, validate: cfg.Validate,
		clock: cfg.Clock, wal: cfg.WAL, metrics: cfg.Metrics, reconcile: cfg.Reconcile, tier: cfg.Tier,
	}
	if err := rc.settle(); err != nil {
		return nil, err
	}
	c := &Controller{
		executors: executors,
		// Each executor has at most one task outcome and one probe
		// outcome outstanding (it is never re-tasked until its previous
		// outcome drains, and an in-flight probe never re-fires), so two
		// slots per executor guarantee senders never block, even for
		// stragglers finishing after Run returns.
		results:  make(chan execOutcome, 2*len(executors)),
		inFlight: make([]bool, len(executors)),
	}
	c.source = source[execOutcome]{clk: rc.clock, ch: c.results, normalize: c.normalize}
	c.eng = newEngine(rc, ros, c)
	return c, nil
}

// Run executes the scatter-and-gather workflow for E rounds starting from
// initialWeights, honoring ctx cancellation between rounds and inside a
// gather. A durable run (cfg.WAL) resumes from the WAL's recovered state
// instead.
func (c *Controller) Run(ctx context.Context, initialWeights map[string]*tensor.Matrix) (*Result, error) {
	return c.eng.run(ctx, initialWeights)
}

// normalize turns an executor outcome into an engine event.
func (c *Controller) normalize(o execOutcome) event {
	if o.probe {
		return event{kind: evProbe, id: o.id, err: o.err}
	}
	c.inFlight[o.id] = false
	if o.err != nil {
		return event{kind: evFailure, id: o.id, round: o.round, err: o.err, cause: "exec"}
	}
	return event{kind: evUpdate, id: o.id, round: o.round, update: o.update}
}

// begin implements backend.
func (c *Controller) begin(round int, global map[string]*tensor.Matrix) error {
	c.round, c.global = round, global
	return nil
}

// idle implements backend: the executors not still busy with an earlier
// task, in executor order; sampling is over the whole roster.
func (c *Controller) idle() ([]int, int) {
	ids := make([]int, 0, len(c.executors))
	for id, busy := range c.inFlight {
		if !busy {
			ids = append(ids, id)
		}
	}
	return ids, len(c.executors)
}

// task implements backend: one executor starts on the round's task — a
// Planner's outcome is computed now and posted for its arrival instant, any
// other executor (real clock only) runs on a goroutine. An in-process
// dispatch cannot fail and costs no wire bytes (executors that model their
// transfers stamp ClientUpdate.DownBytes instead).
func (c *Controller) task(id int) (int, error) {
	ex, round, global := c.executors[id], c.round, c.global
	c.inFlight[id] = true
	if p, ok := ex.(Planner); ok {
		d, u, err := p.PlanRound(round, global)
		c.eng.clock.AfterFunc(d, func() {
			c.results <- execOutcome{update: u, err: err, id: id, round: round}
		})
		return 0, nil
	}
	go func() {
		u, err := ex.ExecuteRound(round, global)
		c.results <- execOutcome{update: u, err: err, id: id, round: round}
	}()
	return 0, nil
}

// probe implements backend: the answer is computed now and posted for the
// instant it lands. Executors implementing Prober are actually probed; the
// rest — and a name the WAL knows but no executor has — trivially succeed
// at once: for an in-process executor there is nothing to check beyond
// waiting out the probe backoff.
func (c *Controller) probe(id int) error {
	var d time.Duration
	var err error
	if id < len(c.executors) {
		if p, ok := c.executors[id].(Prober); ok {
			d, err = p.Probe()
		}
	}
	c.eng.clock.AfterFunc(d, func() {
		c.results <- execOutcome{id: id, err: err, probe: true}
	})
	return nil
}
