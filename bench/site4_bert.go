package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"clinfl/internal/data"
	"clinfl/internal/ehr"
	"clinfl/internal/fl"
	"clinfl/internal/model"
	"clinfl/internal/nn"
	"clinfl/internal/opt"
	"clinfl/internal/sched"
	"clinfl/internal/tensor"
	"clinfl/internal/token"
)

const bertMaxLen = 24

// bertFederation is one fully set-up site4_bert federation: the sites'
// executors over their shards, the initial global model, and the held-out
// validator. Executors keep optimizer state across rounds, so a same-seed
// re-run needs a fresh federation.
type bertFederation struct {
	execs    []fl.Executor
	initial  map[string]*tensor.Matrix
	valModel model.Classifier
	heldOut  data.Dataset
	rec      *Recorder
	// warmLoss is the mean training loss of the untimed warm-up round.
	warmLoss float64

	generateS, encodeS float64
}

// newBERTFederation generates the cohort from the seed, tokenizes it,
// shards it across the sites, builds one model per site and runs the
// untimed warm-up round (arena slabs, tapes, eval context).
func newBERTFederation(cfg config, sz sizes) (*bertFederation, error) {
	f := &bertFederation{rec: cfg.rec}
	train := sz.bertSites * sz.bertPerSite

	start := time.Now()
	ecfg := ehr.DefaultConfig()
	ecfg.Seed = cfg.seed
	ecfg.Patients = train + sz.bertHeldOut
	ecfg.CorpusSentences = 1
	patients, err := ehr.GenerateCohort(ecfg)
	if err != nil {
		return nil, err
	}
	f.generateS = time.Since(start).Seconds()

	start = time.Now()
	streams := make([][]string, len(patients))
	for i, p := range patients {
		streams[i] = p.Tokens
	}
	vocab, err := token.BuildVocab(streams, 1, 0)
	if err != nil {
		return nil, err
	}
	tok, err := token.NewTokenizer(vocab, bertMaxLen)
	if err != nil {
		return nil, err
	}
	ds := make(data.Dataset, len(patients))
	for i, p := range patients {
		ids, pad := tok.Encode(p.Tokens)
		ds[i] = data.Example{IDs: ids, PadMask: pad, Label: p.Outcome}
	}
	f.encodeS = time.Since(start).Seconds()

	shards, err := data.PartitionBalanced(ds[:train], sz.bertSites)
	if err != nil {
		return nil, err
	}
	f.heldOut = ds[train:]
	spec, err := model.SpecByName(sz.bertModel)
	if err != nil {
		return nil, err
	}
	newModel := func() (model.Classifier, error) {
		return model.New(spec, vocab.Size(), bertMaxLen, 2, cfg.seed)
	}
	execs := make([]fl.Executor, sz.bertSites)
	for i, shard := range shards {
		m, err := newModel()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			f.initial = nn.SnapshotWeights(m.Params())
		}
		execs[i], err = fl.NewClassifierExecutor(fmt.Sprintf("site-%d", i), m, shard, nil,
			fl.LocalConfig{Epochs: 1, LR: 1e-3, BatchSize: 16, Seed: cfg.seed*100 + int64(i)})
		if err != nil {
			return nil, err
		}
	}
	f.execs = traceExecutors(execs, cfg.rec)
	if f.valModel, err = newModel(); err != nil {
		return nil, err
	}
	warm, _, err := f.run(1)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	f.warmLoss = warm.History.Rounds[0].MeanTrainLoss
	return f, nil
}

// score is the Validate hook's body: held-out accuracy of the aggregated
// model (the paper's best-model selection), forward only.
func (f *bertFederation) score(w map[string]*tensor.Matrix) (float64, error) {
	if err := nn.LoadWeights(f.valModel.Params(), w); err != nil {
		return 0, err
	}
	pred, err := f.valModel.Predict(f.heldOut)
	if err != nil {
		return 0, err
	}
	hits := 0
	for i, p := range pred {
		if p == f.heldOut[i].Label {
			hits++
		}
	}
	return float64(hits) / float64(len(pred)), nil
}

// run drives one in-process federation of the given length from the
// initial weights.
func (f *bertFederation) run(rounds int) (*fl.Result, *roundMarks, error) {
	marks := &roundMarks{}
	ctrl, err := fl.NewController(fl.ControllerConfig{
		Rounds:     rounds,
		Aggregator: traceAggregator(f.rec),
		Validate:   marks.hook(f.rec, f.score),
	}, f.execs)
	if err != nil {
		return nil, nil, err
	}
	res, err := ctrl.Run(context.Background(), f.initial)
	return res, marks, err
}

func runSite4BERT(cfg config) (*Run, error) {
	sz := sizesFor(cfg.seconds, cfg.smoke)
	run := newRun(wlSite4BERT, cfg)
	m := run.Metrics

	// Set up setupPasses federations from the same seed, one alive at a
	// time; the last one is timed. The first also runs one round past its
	// warm-up: those two losses are what the timed federation — same seed,
	// fresh state — must reproduce bit for bit. Building the earlier ones
	// brings the heap to its working size before anything is timed.
	var fed *bertFederation
	var setups []float64
	var wantWarm, wantRound0 float64
	for pass := 0; pass < setupPasses; pass++ {
		fed = nil
		runtime.GC()
		start := passStart(pass)
		var err error
		if fed, err = newBERTFederation(cfg, sz); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if pass == 0 {
			probe, _, err := fed.run(1)
			if err != nil {
				return nil, err
			}
			wantWarm, wantRound0 = fed.warmLoss, probe.History.Rounds[0].MeanTrainLoss
		}
	}

	before := readGoStats()
	cfg.rec.Enable(true)
	start := time.Now()
	res, marks, err := fed.run(sz.bertRounds)
	wall := time.Since(start).Seconds()
	if err == nil {
		marks.addRoundSpans(cfg.rec, start)
	}
	cfg.rec.Enable(false)
	after := readGoStats()
	if err != nil {
		return nil, err
	}

	rounds := res.History.Rounds
	durations := make([]float64, len(rounds))
	participants, cleanRounds := 0, 0
	for i, r := range rounds {
		durations[i] = r.Duration.Seconds()
		participants += len(r.Participants)
		run.updates(sz.bertSites, len(r.Participants))
		if len(r.Participants) == sz.bertSites && len(r.Failures) == 0 &&
			!math.IsNaN(r.MeanTrainLoss) && !math.IsInf(r.MeanTrainLoss, 0) {
			cleanRounds++
		}
	}
	finalLoss := rounds[len(rounds)-1].MeanTrainLoss
	run.check("rounds_complete", len(rounds) == sz.bertRounds && cleanRounds == len(rounds),
		"%d/%d rounds ran with %d participants, no failures and a finite loss", cleanRounds, sz.bertRounds, sz.bertSites)
	run.check("rerun_loss_identical", fed.warmLoss == wantWarm && rounds[0].MeanTrainLoss == wantRound0,
		"same-seed federations disagree: warm-up loss %v vs %v, round 0 loss %v vs %v",
		wantWarm, fed.warmLoss, wantRound0, rounds[0].MeanTrainLoss)

	m.setN("setup_s", median(setups), len(setups))
	m.setN("round_min_s", slices.Min(durations), len(durations))
	m.set("wall_s", wall)
	m.setN("round_p50_s", median(durations), len(durations))
	m.set("updates_per_s", float64(participants)/wall)
	m.set("samples_per_s", float64(participants*sz.bertPerSite)/wall)
	m.set("final_loss", finalLoss)

	if cfg.traced() {
		st := newSpanStats(cfg.rec.Spans())
		n := float64(len(rounds))
		localBatches := float64((sz.bertPerSite + 15) / 16)
		exec := st.durations(spanExecutor)
		m.setN("train.step_ms", ms(median(exec))/localBatches, len(exec))
		m.set("model.validate_ms_per_round", ms(st.total(spanValidate).Seconds())/n)
		m.set("fl.executor.busy_s_per_round", st.total(spanExecutor).Seconds()/n)
		m.set("fl.executor.max_s_per_round", st.maxPerRound(spanExecutor).Seconds()/n)
		m.set("fl.aggregate.ms_per_round", ms(st.total(spanAggregate).Seconds())/n)
		// The controller stamps Duration before it calls Validate, so the
		// rounds account for the wall clock only together with the hook.
		m.set("fl.round.uncovered_ratio", 1-(sum(durations)+sum(marks.validateSeconds()))/wall)
		self := st.total(spanRound) - st.maxPerRound(spanExecutor) - st.total(spanAggregate) - st.total(spanValidate)
		m.set("fl.controller.self_ms_per_round", ms(self.Seconds())/n)
		m.set("ehr.generate_ms", ms(fed.generateS))
		m.set("token.encode_ms", ms(fed.encodeS))
		setGoMetrics(m, before, after, len(rounds))
		if err := bertStandalone(m, fed, sz); err != nil {
			return nil, err
		}
		m.set("autograd.backward_ms", m["train.step_ms"].Value-m["model.forward_ms"].Value-m["opt.adam_ms"].Value)
	}
	return run, nil
}

// bertStandalone times the compute layers' public functions on the
// workload's own shapes, after the timed section.
func bertStandalone(m Metrics, fed *bertFederation, sz sizes) error {
	// tensor: the BERT FFN up-projection shape.
	const gm, gk, gn = 16, 128, 512
	rng := tensor.NewRNG(1)
	x, w, out := rng.Normal(gm, gk, 0, 1), rng.Normal(gk, gn, 0, 1), tensor.New(gm, gn)
	start := time.Now()
	for i := 0; i < sz.gemmIters; i++ {
		if err := tensor.MatMulInto(out, x, w); err != nil {
			return err
		}
	}
	flops := float64(2*gm*gk*gn) * float64(sz.gemmIters)
	m.setN("tensor.gemm_gflops", flops/time.Since(start).Seconds()/1e9, sz.gemmIters)

	// model: one eval-mode forward of an 8-example batch.
	batch := []data.Example(fed.heldOut[:8])
	fwd, err := timeIt(sz.standaloneReps, func() error {
		_, err := fed.valModel.Predict(batch)
		return err
	})
	if err != nil {
		return err
	}
	m.setN("model.forward_ms", ms(fwd), sz.standaloneReps)

	// opt: one Adam step over the model's parameter set (zero gradients:
	// the step's cost does not depend on their values).
	adam := opt.NewAdam(1e-3)
	params := fed.valModel.Params()
	if err := adam.Step(params); err != nil { // allocates the moment buffers
		return err
	}
	step, err := timeIt(sz.standaloneReps, func() error { return adam.Step(params) })
	if err != nil {
		return err
	}
	m.setN("opt.adam_ms", ms(step), sz.standaloneReps)

	// sched: fork-join of one cheap item per participant. The flop hint is
	// large so the pool fans out instead of running inline.
	width := runtime.GOMAXPROCS(0)
	pool := sched.Default()
	const forks = 200
	start = time.Now()
	for i := 0; i < forks; i++ {
		pool.ParallelFor(width, 1<<30, sched.BodyFunc(func(lo, hi int) {}))
	}
	m.setN("sched.fanout_us", us(time.Since(start).Seconds())/forks, forks)
	return nil
}
