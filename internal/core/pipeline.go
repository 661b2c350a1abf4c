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

// newClassifier instantiates the configured Table II model.
func (p *Pipeline) newClassifier(vocabSize int, seed int64) (model.Classifier, error) {
	spec, err := model.SpecByName(p.cfg.ModelName)
	if err != nil {
		return nil, err
	}
	return model.New(spec, vocabSize, p.cfg.MaxLen, 2, seed)
}

// localConfig builds the per-client training configuration.
func (p *Pipeline) localConfig(timing *metrics.Timing) fl.LocalConfig {
	lc := fl.LocalConfig{
		Epochs:    p.cfg.LocalEpochs,
		LR:        p.cfg.LR,
		BatchSize: p.cfg.BatchSize,
		ClipNorm:  p.cfg.ClipNorm,
		Seed:      p.cfg.Seed,
	}
	if timing != nil {
		lc.EpochHook = func(_ string, _, _ int, d time.Duration) { timing.Add(d) }
	}
	return lc
}

// partition splits the training set per the configured scheme.
func (p *Pipeline) partition(train data.Dataset) ([]data.Dataset, error) {
	switch p.cfg.Partition {
	case PartitionBalanced:
		return data.PartitionBalanced(train, p.cfg.Clients)
	case PartitionImbalanced:
		return data.PartitionRatios(train, data.PaperImbalancedRatios)
	default:
		return nil, fmt.Errorf("core: unknown partition %q", p.cfg.Partition)
	}
}

// partitionIDs splits pretraining sequences per the configured scheme,
// partitioning an index dataset so the ratio logic stays in partition.
func (p *Pipeline) partitionIDs(train [][]int) ([][][]int, error) {
	idx := make(data.Dataset, len(train))
	for i := range idx {
		idx[i] = data.Example{Label: i}
	}
	parts, err := p.partition(idx)
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

	valModel, err := p.newClassifier(vocabSize, p.cfg.Seed)
	if err != nil {
		return nil, err
	}
	validate := AccuracyValidator(valModel, validSet)

	switch p.cfg.Mode {
	case ModeStandalone:
		return p.runStandaloneFinetune(ctx, rep, trainSet, validate)
	case ModeCentralized, ModeFederated:
	default:
		return nil, fmt.Errorf("core: unknown mode %q", p.cfg.Mode)
	}

	shards := []data.Dataset{trainSet}
	if p.cfg.Mode == ModeFederated {
		if shards, err = p.partition(trainSet); err != nil {
			return nil, err
		}
	}
	executors := make([]fl.Executor, len(shards))
	for i, shard := range shards {
		mdl, err := p.newClassifier(vocabSize, p.cfg.Seed)
		if err != nil {
			return nil, err
		}
		lc := p.localConfig(rep.EpochTimes)
		lc.Seed = p.cfg.Seed + int64(i)*37
		exec, err := fl.NewClassifierExecutor(fmt.Sprintf("site-%d", i+1), mdl, shard, nil, lc)
		if err != nil {
			return nil, err
		}
		executors[i] = exec
	}

	ctrl, err := fl.NewController(fl.ControllerConfig{
		Rounds:   p.cfg.Rounds,
		Validate: validate,
	}, executors)
	if err != nil {
		return nil, err
	}
	initial := nn.SnapshotWeights(valModel.Params())
	res, err := ctrl.Run(ctx, initial)
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

// runStandaloneFinetune trains each site alone and reports the
// sample-weighted mean validation accuracy.
func (p *Pipeline) runStandaloneFinetune(ctx context.Context, rep *Report, trainSet data.Dataset, validate func(map[string]*tensor.Matrix) (float64, error)) (*Report, error) {
	shards, err := p.partition(trainSet)
	if err != nil {
		return nil, err
	}
	limit := p.cfg.StandaloneLimit
	if limit <= 0 || limit > len(shards) {
		limit = len(shards)
	}
	var accSum, weightSum float64
	for i := 0; i < limit; i++ {
		mdl, err := p.newClassifier(rep.VocabSize, p.cfg.Seed)
		if err != nil {
			return nil, err
		}
		lc := p.localConfig(rep.EpochTimes)
		lc.Seed = p.cfg.Seed + int64(i)*37
		site := fmt.Sprintf("site-%d", i+1)
		exec, err := fl.NewClassifierExecutor(site, mdl, shards[i], nil, lc)
		if err != nil {
			return nil, err
		}
		ctrl, err := fl.NewController(fl.ControllerConfig{
			Rounds:   p.cfg.Rounds,
			Validate: validate,
		}, []fl.Executor{exec})
		if err != nil {
			return nil, err
		}
		res, err := ctrl.Run(ctx, nn.SnapshotWeights(mdl.Params()))
		if err != nil {
			return nil, fmt.Errorf("core: standalone %s: %w", site, err)
		}
		acc := res.History.BestScore
		rep.PerSite = append(rep.PerSite, SiteResult{Site: site, Samples: len(shards[i]), Accuracy: acc})
		accSum += acc * float64(len(shards[i]))
		weightSum += float64(len(shards[i]))
	}
	rep.Accuracy = accSum / weightSum
	return rep, nil
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

	newBERT := func(seed int64) (*model.BERT, error) {
		spec, err := model.SpecByName(p.cfg.ModelName)
		if err != nil {
			return nil, err
		}
		c, err := model.New(spec, vocabSize, p.cfg.MaxLen, 2, seed)
		if err != nil {
			return nil, err
		}
		b, ok := c.(*model.BERT)
		if !ok {
			return nil, fmt.Errorf("core: %s is not a BERT-family model", p.cfg.ModelName)
		}
		return b, nil
	}

	evalModel, err := newBERT(p.cfg.Seed)
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
	baseLoss, err := evalLoss(nn.SnapshotWeights(evalModel.Params()))
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

	var shards [][][]int
	switch p.cfg.Mode {
	case ModeCentralized:
		shards = [][][]int{trainSeqs}
	case ModeFederated:
		if shards, err = p.partitionIDs(trainSeqs); err != nil {
			return nil, err
		}
	case ModeStandalone:
		// The paper's "BERT utilizing a small dataset": one site training
		// alone on a balanced-shard-sized subset.
		allShards, err := p.partitionIDs(trainSeqs)
		if err != nil {
			return nil, err
		}
		limit := p.cfg.StandaloneLimit
		if limit <= 0 || limit > 1 {
			limit = 1
		}
		shards = allShards[:limit]
	}

	executors := make([]fl.Executor, len(shards))
	for i, shard := range shards {
		mdl, err := newBERT(p.cfg.Seed)
		if err != nil {
			return nil, err
		}
		lc := p.localConfig(rep.EpochTimes)
		lc.Seed = p.cfg.Seed + int64(i)*37
		exec, err := fl.NewMLMExecutor(fmt.Sprintf("site-%d", i+1), mdl, mdl.Params(), shard, maskCfg, lc)
		if err != nil {
			return nil, err
		}
		executors[i] = exec
	}
	ctrl, err := fl.NewController(fl.ControllerConfig{
		Rounds:   p.cfg.Rounds,
		Validate: validate,
	}, executors)
	if err != nil {
		return nil, err
	}
	res, err := ctrl.Run(ctx, nn.SnapshotWeights(evalModel.Params()))
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
