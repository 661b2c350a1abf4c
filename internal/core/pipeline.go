package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"clinfl/internal/data"
	"clinfl/internal/ehr"
	"clinfl/internal/fl"
	"clinfl/internal/metrics"
	"clinfl/internal/mlm"
	"clinfl/internal/model"
	"clinfl/internal/nn"
	"clinfl/internal/tensor"
	"clinfl/internal/token"
	"clinfl/internal/train"
)

// SiteResult is one standalone site's outcome.
type SiteResult struct {
	Site     string
	Samples  int
	Accuracy float64 // finetune
	EvalLoss float64 // pretrain
}

// Report is the pipeline output (Fig. 1 "obtaining results").
type Report struct {
	Config    Config
	VocabSize int

	// Accuracy is the selected global model's top-1 validation accuracy
	// (finetune). For standalone mode it is the sample-weighted mean over
	// trained sites.
	Accuracy float64
	// EvalLoss is the final held-out MLM loss (pretrain).
	EvalLoss float64
	// PerSite holds standalone per-site outcomes.
	PerSite []SiteResult

	// EvalCurve tracks validation accuracy (finetune) or held-out MLM loss
	// (pretrain) per round — the Fig. 2 trajectories.
	EvalCurve *metrics.Curve
	// TrainCurve tracks mean local training loss per round.
	TrainCurve *metrics.Curve
	// EpochTimes aggregates local-epoch wall-clock times (Fig. 3).
	EpochTimes *metrics.Timing
	// History is the federated run record (nil for standalone).
	History *fl.History
	// Duration is total pipeline wall-clock time.
	Duration time.Duration
}

// Pipeline executes the paper's system pipeline for one configuration.
type Pipeline struct {
	cfg Config
}

// NewPipeline validates cfg and returns a runnable pipeline.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Pipeline{cfg: cfg}, nil
}

// Run executes the pipeline: data generation → tokenization → model
// construction → (centralized | federated | standalone) training →
// results.
func (p *Pipeline) Run(ctx context.Context) (*Report, error) {
	start := time.Now()
	var (
		rep *Report
		err error
	)
	switch p.cfg.Task {
	case TaskFinetune:
		rep, err = p.runFinetune(ctx)
	case TaskPretrain:
		rep, err = p.runPretrain(ctx)
	default:
		return nil, fmt.Errorf("core: unknown task %q", p.cfg.Task)
	}
	if err != nil {
		return nil, err
	}
	rep.Config = p.cfg
	rep.Duration = time.Since(start)
	return rep, nil
}

// ---- data preparation ----

// EncodeCohort is the one recipe that turns the synthetic ADR cohort into
// model inputs (Fig. 1): it generates the cohort for ecfg, builds the
// vocabulary over every patient's tokens, encodes each patient at maxLen
// and shuffles the examples with the stream seed+17. Every site,
// experiment and example that trains on the cohort encodes it here, so
// they all agree on the vocabulary.
func EncodeCohort(ecfg ehr.Config, maxLen int, seed int64) (data.Dataset, *token.Vocab, error) {
	patients, err := ehr.GenerateCohort(ecfg)
	if err != nil {
		return nil, nil, fmt.Errorf("core: cohort: %w", err)
	}
	streams := make([][]string, len(patients))
	for i, pt := range patients {
		streams[i] = pt.Tokens
	}
	tok, err := newTokenizer(streams, maxLen)
	if err != nil {
		return nil, nil, err
	}
	all := make(data.Dataset, len(patients))
	for i, pt := range patients {
		ids, padMask := tok.Encode(pt.Tokens)
		all[i] = data.Example{IDs: ids, PadMask: padMask, Label: pt.Outcome}
	}
	return all.Shuffled(tensor.NewRNG(seed + 17)), tok.Vocab(), nil
}

// PrepareFinetune encodes cfg's cohort with EncodeCohort and splits it
// into train and validation sets of cfg.TrainSize and cfg.ValidSize, or
// the paper's 80/20 split (6,927 / 1,732 of 8,638) when either is unset.
func PrepareFinetune(cfg Config) (train, valid data.Dataset, vocab *token.Vocab, err error) {
	all, vocab, err := EncodeCohort(cfg.EHR, cfg.MaxLen, cfg.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	train, valid, err = split(all, cfg.TrainSize, cfg.ValidSize, 8, "cohort")
	return train, valid, vocab, err
}

// preparePretrain generates the corpus and encodes train/validation id
// sequences.
func (p *Pipeline) preparePretrain() (train, valid [][]int, vocab *token.Vocab, err error) {
	corpus, err := ehr.GenerateCorpus(p.cfg.EHR)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: corpus: %w", err)
	}
	tok, err := newTokenizer(corpus, p.cfg.MaxLen)
	if err != nil {
		return nil, nil, nil, err
	}
	all := make([][]int, len(corpus))
	for i, sent := range corpus {
		all[i], _ = tok.Encode(sent)
	}
	rng := tensor.NewRNG(p.cfg.Seed + 23)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	train, valid, err = split(all, p.cfg.TrainSize, p.cfg.ValidSize, 9, "corpus")
	return train, valid, tok.Vocab(), err
}

// newTokenizer builds the vocabulary over streams — every token seen at
// least once, no size cap — and wraps it at maxLen.
func newTokenizer(streams [][]string, maxLen int) (*token.Tokenizer, error) {
	vocab, err := token.BuildVocab(streams, 1, 0)
	if err != nil {
		return nil, fmt.Errorf("core: vocab: %w", err)
	}
	return token.NewTokenizer(vocab, maxLen)
}

// split returns the first trainSize items of all and the validSize after
// them; when either size is unset it splits all at tenths/10.
func split[S ~[]E, E any](all S, trainSize, validSize, tenths int, what string) (train, valid S, err error) {
	if trainSize <= 0 || validSize <= 0 {
		trainSize = len(all) * tenths / 10
		validSize = len(all) - trainSize
	}
	if trainSize+validSize > len(all) {
		return nil, nil, fmt.Errorf("core: train+valid %d exceeds %s %d", trainSize+validSize, what, len(all))
	}
	return all[:trainSize], all[trainSize : trainSize+validSize], nil
}

// AccuracyValidator is the one accuracy hook the pipeline, the experiments
// and the examples hand their controllers and servers: it loads each
// candidate global model into m and returns its top-1 accuracy on valid.
func AccuracyValidator(m model.Classifier, valid data.Dataset) func(map[string]*tensor.Matrix) (float64, error) {
	labels := valid.Labels()
	return func(weights map[string]*tensor.Matrix) (float64, error) {
		if err := nn.LoadWeights(m.Params(), weights); err != nil {
			return 0, err
		}
		preds, err := m.Predict(valid)
		if err != nil {
			return 0, err
		}
		return metrics.Accuracy(preds, labels)
	}
}

// partitionIDs splits pretraining sequences with Shards, partitioning an
// index dataset so the ratio logic stays in one place.
func partitionIDs(cfg Config, train [][]int) ([][][]int, error) {
	idx := make(data.Dataset, len(train))
	for i := range idx {
		idx[i] = data.Example{Label: i}
	}
	parts, err := Shards(cfg, idx)
	if err != nil {
		return nil, err
	}
	out := make([][][]int, len(parts))
	for ci, part := range parts {
		shard := make([][]int, len(part))
		for i, e := range part {
			shard[i] = train[e.Label]
		}
		out[ci] = shard
	}
	return out, nil
}

// federate builds sites first..first+n-1 with site, then runs them
// together for cfg.Rounds rounds from initial, scoring each round's global
// model with validate. Every mode of both tasks trains through here.
func (p *Pipeline) federate(ctx context.Context, first, n int, site func(i int) (fl.Executor, error),
	validate func(map[string]*tensor.Matrix) (float64, error), initial map[string]*tensor.Matrix) (*fl.Result, error) {
	sites := make([]fl.Executor, n)
	for k := range sites {
		var err error
		if sites[k], err = site(first + k); err != nil {
			return nil, err
		}
	}
	ctrl, err := fl.NewController(fl.ControllerConfig{
		Rounds:   p.cfg.Rounds,
		Validate: validate,
	}, sites)
	if err != nil {
		return nil, err
	}
	return ctrl.Run(ctx, initial)
}

// siteName names site i as every in-process run does.
func siteName(i int) string { return fmt.Sprintf("site-%d", i+1) }

// ---- fine-tuning (Table III) ----

func (p *Pipeline) runFinetune(ctx context.Context) (*Report, error) {
	trainSet, validSet, vocab, err := PrepareFinetune(p.cfg)
	if err != nil {
		return nil, err
	}
	vocabSize := vocab.Size()
	rep := &Report{
		VocabSize:  vocabSize,
		EvalCurve:  &metrics.Curve{Name: string(p.cfg.Mode) + "/" + p.cfg.ModelName + "/val_acc"},
		TrainCurve: &metrics.Curve{Name: string(p.cfg.Mode) + "/" + p.cfg.ModelName + "/train_loss"},
		EpochTimes: metrics.NewTiming("local_epoch"),
	}

	valModel, err := NewModel(p.cfg, vocabSize)
	if err != nil {
		return nil, err
	}
	validate := AccuracyValidator(valModel, validSet)
	initial := nn.SnapshotWeights(valModel.Params())

	shards := []data.Dataset{trainSet}
	if p.cfg.Mode != ModeCentralized {
		if shards, err = Shards(p.cfg, trainSet); err != nil {
			return nil, err
		}
	}
	hook := epochTimer(rep.EpochTimes)
	site := func(i int) (fl.Executor, error) {
		return NewSite(p.cfg, i, siteName(i), shards[i], vocabSize, hook, 0)
	}

	if p.cfg.Mode == ModeStandalone {
		// Each site trains alone; the report is the sample-weighted mean.
		limit := p.cfg.StandaloneLimit
		if limit <= 0 || limit > len(shards) {
			limit = len(shards)
		}
		var accSum, weightSum float64
		for i := 0; i < limit; i++ {
			res, err := p.federate(ctx, i, 1, site, validate, initial)
			if err != nil {
				return nil, fmt.Errorf("core: standalone %s: %w", siteName(i), err)
			}
			acc := res.History.BestScore
			rep.PerSite = append(rep.PerSite, SiteResult{Site: siteName(i), Samples: len(shards[i]), Accuracy: acc})
			accSum += acc * float64(len(shards[i]))
			weightSum += float64(len(shards[i]))
		}
		rep.Accuracy = accSum / weightSum
		return rep, nil
	}

	res, err := p.federate(ctx, 0, len(shards), site, validate, initial)
	if err != nil {
		return nil, err
	}
	for _, r := range res.History.Rounds {
		rep.EvalCurve.Add(r.Round, r.ValScore)
		rep.TrainCurve.Add(r.Round, r.MeanTrainLoss)
	}
	rep.History = &res.History
	rep.Accuracy = res.History.BestScore
	return rep, nil
}

// epochTimer is the pipeline's epoch hook: it adds each local epoch's
// wall-clock time to timing.
func epochTimer(timing *metrics.Timing) func(string, int, int, time.Duration) {
	return func(_ string, _, _ int, d time.Duration) { timing.Add(d) }
}

// ---- pretraining (Fig. 2) ----

func (p *Pipeline) runPretrain(ctx context.Context) (*Report, error) {
	if p.cfg.ModelName == "lstm" {
		return nil, errors.New("core: MLM pretraining requires a BERT-family model")
	}
	trainSeqs, validSeqs, vocab, err := p.preparePretrain()
	if err != nil {
		return nil, err
	}
	vocabSize := vocab.Size()
	rep := &Report{
		VocabSize:  vocabSize,
		EvalCurve:  &metrics.Curve{Name: string(p.cfg.Mode) + "/" + string(p.cfg.Partition) + "/mlm_loss"},
		TrainCurve: &metrics.Curve{Name: string(p.cfg.Mode) + "/" + string(p.cfg.Partition) + "/train_loss"},
		EpochTimes: metrics.NewTiming("local_epoch"),
	}
	maskCfg := mlm.DefaultConfig(vocabSize)

	evalModel, err := newPretrainer(p.cfg, vocabSize)
	if err != nil {
		return nil, err
	}
	// The held-out set is masked once, deterministically, and every score
	// reuses that masking.
	heldOut := make([]mlm.MaskedExample, len(validSeqs))
	maskRNG := tensor.NewRNG(p.cfg.Seed + 101)
	for i, ids := range validSeqs {
		if heldOut[i], err = mlm.Mask(maskCfg, ids, maskRNG); err != nil {
			return nil, err
		}
	}
	evalLoss := func(weights map[string]*tensor.Matrix) (float64, error) {
		if err := nn.LoadWeights(evalModel.Params(), weights); err != nil {
			return 0, err
		}
		return train.EvalLoss(heldOut, evalModel.MLMLossBatch, p.cfg.BatchSize, p.cfg.Seed+101)
	}
	// Record the untrained baseline (round -1 in spirit; plotted at 0 with
	// trained rounds at 1..E). The paper's Fig. 2 starting loss ≈ ln|V|.
	initial := nn.SnapshotWeights(evalModel.Params())
	baseLoss, err := evalLoss(initial)
	if err != nil {
		return nil, err
	}
	rep.EvalCurve.Add(0, baseLoss)

	validate := func(weights map[string]*tensor.Matrix) (float64, error) {
		loss, err := evalLoss(weights)
		if err != nil {
			return 0, err
		}
		return -loss, nil // higher is better for model selection
	}

	shards := [][][]int{trainSeqs}
	if p.cfg.Mode != ModeCentralized {
		if shards, err = partitionIDs(p.cfg, trainSeqs); err != nil {
			return nil, err
		}
	}
	n := len(shards)
	if p.cfg.Mode == ModeStandalone {
		// The paper's "BERT utilizing a small dataset": one site training
		// alone on the first shard.
		n = 1
	}
	hook := epochTimer(rep.EpochTimes)
	site := func(i int) (fl.Executor, error) {
		return newMLMSite(p.cfg, i, siteName(i), shards[i], vocabSize, maskCfg, hook)
	}
	res, err := p.federate(ctx, 0, n, site, validate, initial)
	if err != nil {
		return nil, err
	}
	for _, r := range res.History.Rounds {
		rep.EvalCurve.Add(r.Round+1, -r.ValScore)
		rep.TrainCurve.Add(r.Round+1, r.MeanTrainLoss)
	}
	rep.History = &res.History
	rep.EvalLoss = rep.EvalCurve.Last()
	return rep, nil
}
