package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"
	"text/tabwriter"
	"time"

	"clinfl/internal/core"
	"clinfl/internal/fl"
	"clinfl/internal/nn"
	"clinfl/internal/tensor"
)

// Stragglers is the straggler/partial-participation scenario sweep: the
// same 4-client LSTM federation run synchronously (every round blocks on
// the injected straggler) and asynchronously (deadline-based partial
// aggregation with MinUpdates=3 plus compressed uplink transport),
// comparing accuracy, round time and bytes-on-wire per round.
type Stragglers struct{}

// ID implements Runner.
func (Stragglers) ID() string { return "stragglers" }

// Describe implements Runner.
func (Stragglers) Describe() string {
	return "Extension: sync vs async federation under an injected straggler (round time, accuracy, bytes)"
}

// StragglerScheme is one federation configuration in the sweep.
type StragglerScheme struct {
	Name string
	// Async enables client sampling semantics: MinUpdates=3 partial
	// aggregation with a round deadline, so the straggler is dropped from
	// every round instead of blocking it.
	Async bool
	// Codec names the simulated uplink weight codec.
	Codec string
}

// StragglerSchemes lists the compared configurations.
var StragglerSchemes = []StragglerScheme{
	{Name: "sync-raw", Codec: "raw"},
	{Name: "async-raw", Async: true, Codec: "raw"},
	{Name: "async-f32", Async: true, Codec: "f32"},
}

// StragglerResult summarizes one scheme's run.
type StragglerResult struct {
	Scheme string
	Rounds int
	// Accuracy is the best validation accuracy (fraction).
	Accuracy float64
	// MeanRoundTime is the mean wall-clock round duration; the sync
	// scheme's includes the straggler's injected delay.
	MeanRoundTime time.Duration
	// MeanParticipants is the mean number of aggregated updates per round.
	MeanParticipants float64
	// BytesUpPerRound is the mean simulated uplink payload per round.
	BytesUpPerRound int64
}

// RunStragglerSweep executes the sweep: one shared data/model setup, one
// federation per scheme, with client 4 a lateSite that starts its round
// delay after the round's three prompt sites have all returned. Results
// are deterministic for a fixed seed: the straggler's update lands after
// every prompt update, whatever the machine's load, so the async schemes
// always aggregate exactly the prompt sites and drop the straggler, and
// each local step runs on one tape, so gradients do not depend on
// GOMAXPROCS.
func RunStragglerSweep(ctx context.Context, scale Scale, delay time.Duration) ([]StragglerResult, error) {
	cfg := scale.apply(core.Default(core.TaskFinetune, core.ModeFederated, "lstm"))
	cfg.Clients = 4
	cfg.Partition = core.PartitionBalanced
	if cfg.Rounds < 3 {
		cfg.Rounds = 3
	}
	if cfg.ValidSize < 200 {
		// Accuracy is compared at the 1-point level; keep the validation
		// granularity (1/ValidSize) comfortably below it at every scale.
		cfg.ValidSize = 200
	}

	// Shared data substrate (same recipe as Fig. 3, in-process).
	if cfg.EHR.Patients < cfg.TrainSize+cfg.ValidSize {
		cfg.EHR.Patients = cfg.TrainSize + cfg.ValidSize
	}
	trainSet, validSet, vocab, err := core.PrepareFinetune(cfg)
	if err != nil {
		return nil, err
	}
	shards, err := core.Shards(cfg, trainSet)
	if err != nil {
		return nil, err
	}
	valModel, err := core.NewModel(cfg, vocab.Size())
	if err != nil {
		return nil, err
	}
	validate := core.AccuracyValidator(valModel, validSet)

	var out []StragglerResult
	for _, scheme := range StragglerSchemes {
		codec, err := fl.CodecByName(scheme.Codec)
		if err != nil {
			return nil, err
		}
		// Client 4 is the straggler: it waits for the round's prompt
		// sites, then delay more, before it trains.
		prompt := &roundGate{sites: cfg.Clients - 1}
		executors := make([]fl.Executor, cfg.Clients)
		for i := range executors {
			exec, err := core.NewSite(cfg, i, fmt.Sprintf("site-%d", i+1), shards[i], vocab.Size(), nil, 0)
			if err != nil {
				return nil, err
			}
			site := codecSite{Executor: exec, codec: codec}
			if i == cfg.Clients-1 {
				executors[i] = lateSite{Executor: site, gate: prompt, delay: delay}
			} else {
				executors[i] = promptSite{Executor: site, gate: prompt}
			}
		}

		ctrlCfg := fl.ControllerConfig{
			Rounds:   cfg.Rounds,
			Seed:     cfg.Seed,
			Validate: validate,
		}
		if scheme.Async {
			// MinUpdates is the fast path (aggregate as soon as the three
			// prompt clients land); the deadline is only a safety net, so
			// it stays generous. The straggler starts only after the
			// prompt clients have returned, so it never makes the
			// MinUpdates cut.
			ctrlCfg.MinUpdates = cfg.Clients - 1
			ctrlCfg.RoundDeadline = 20 * delay
		}
		ctrl, err := fl.NewController(ctrlCfg, executors)
		if err != nil {
			return nil, err
		}
		res, err := ctrl.Run(ctx, nn.SnapshotWeights(valModel.Params()))
		if err != nil {
			return nil, fmt.Errorf("experiments: stragglers %s: %w", scheme.Name, err)
		}

		r := StragglerResult{Scheme: scheme.Name, Rounds: len(res.History.Rounds), Accuracy: res.History.BestScore}
		var totalDur time.Duration
		var totalParts int
		var totalBytes int64
		for _, rec := range res.History.Rounds {
			totalDur += rec.Duration
			totalParts += len(rec.Participants)
			totalBytes += rec.BytesUp
		}
		if n := len(res.History.Rounds); n > 0 {
			r.MeanRoundTime = totalDur / time.Duration(n)
			r.MeanParticipants = float64(totalParts) / float64(n)
			r.BytesUpPerRound = totalBytes / int64(n)
		}
		out = append(out, r)
	}
	return out, nil
}

// codecSite sends a site's updates through an uplink codec, as a networked
// fl.Client does: it encodes the trained weights, decodes them with
// fl.DecodeWeights as the server would, and stamps the payload size, so the
// in-process sweep sees each codec's loss and bytes-on-wire without
// sockets.
type codecSite struct {
	fl.Executor
	codec fl.WeightCodec
}

// ExecuteRound implements fl.Executor.
func (s codecSite) ExecuteRound(round int, global map[string]*tensor.Matrix) (*fl.ClientUpdate, error) {
	u, err := s.Executor.ExecuteRound(round, global)
	if err != nil {
		return nil, err
	}
	blob, err := s.codec.Encode(u.Weights)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s encode update: %w", u.ClientName, err)
	}
	if u.Weights, err = fl.DecodeWeights(blob); err != nil {
		return nil, fmt.Errorf("experiments: %s decode update: %w", u.ClientName, err)
	}
	u.PayloadBytes = len(blob)
	return u, nil
}

// roundGate counts, per round, the prompt sites that have returned from
// it, so the straggler can wait for all of them. Every prompt site is
// tasked every round: the sync scheme tasks all sites, and an async round
// closes once its three prompt sites have returned, so they are idle when
// the next round starts.
type roundGate struct {
	sites  int // prompt sites per round
	mu     sync.Mutex
	rounds map[int]*sync.WaitGroup
}

// round returns the round's wait group, counting down from sites.
func (g *roundGate) round(r int) *sync.WaitGroup {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rounds == nil {
		g.rounds = make(map[int]*sync.WaitGroup)
	}
	wg, ok := g.rounds[r]
	if !ok {
		wg = new(sync.WaitGroup)
		wg.Add(g.sites)
		g.rounds[r] = wg
	}
	return wg
}

// promptSite reports to its gate when it returns from a round, whether
// or not its round failed.
type promptSite struct {
	fl.Executor
	gate *roundGate
}

// ExecuteRound implements fl.Executor.
func (s promptSite) ExecuteRound(round int, global map[string]*tensor.Matrix) (*fl.ClientUpdate, error) {
	defer s.gate.round(round).Done()
	return s.Executor.ExecuteRound(round, global)
}

// lateSite is the sweep's straggler: it waits until every prompt site has
// returned from the round, then sleeps delay, then trains. The sleep is
// real, so the sweep runs on the real clock.
type lateSite struct {
	fl.Executor
	gate  *roundGate
	delay time.Duration
}

// ExecuteRound implements fl.Executor.
func (s lateSite) ExecuteRound(round int, global map[string]*tensor.Matrix) (*fl.ClientUpdate, error) {
	s.gate.round(round).Wait()
	time.Sleep(s.delay)
	return s.Executor.ExecuteRound(round, global)
}

// Run implements Runner.
func (Stragglers) Run(ctx context.Context, w io.Writer, scale Scale) error {
	const delay = 600 * time.Millisecond
	results, err := RunStragglerSweep(ctx, scale, delay)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "EXTENSION — SYNC vs ASYNC FEDERATION UNDER AN INJECTED STRAGGLER")
	fmt.Fprintf(w, "4 LSTM clients; client 4 starts each round %v after the other three\n", delay)
	fmt.Fprintln(w, "return. async = MinUpdates=3 + round deadline (straggler dropped),")
	fmt.Fprintln(w, "f32 = quantized uplink transport.")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Scheme\tRounds\tAccuracy\tMean round\tParticipants\tUplink B/round")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%d\t%.1f%%\t%v\t%.1f\t%d\n",
			r.Scheme, r.Rounds, 100*r.Accuracy, r.MeanRoundTime.Round(time.Millisecond),
			r.MeanParticipants, r.BytesUpPerRound)
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "Expected shape: async rounds are straggler-free (over delay faster), the f32")
	fmt.Fprintln(tw, "uplink halves bytes-on-wire, and accuracy stays within a point of sync.")
	return tw.Flush()
}
