package fl

import (
	"errors"
	"fmt"
	"time"

	"clinfl/internal/data"
	"clinfl/internal/mlm"
	"clinfl/internal/model"
	"clinfl/internal/nn"
	"clinfl/internal/opt"
	"clinfl/internal/tensor"
	"clinfl/internal/train"
)

// Executor is the client-side workload NVFlare calls an "executor": it
// receives the global model, performs local work, and returns an update.
type Executor interface {
	// Name is the client/site identity.
	Name() string
	// NumSamples is the client's local data volume (aggregation weight).
	NumSamples() int
	// ExecuteRound trains locally starting from the global weights.
	// global is valid only for the duration of the call: a networked
	// Client decodes the next task into the same matrices, so an executor
	// that needs the weights later copies them (LoadWeights and
	// SetProxRef do).
	ExecuteRound(round int, global map[string]*tensor.Matrix) (*ClientUpdate, error)
}

// Planner is the optional form of an Executor whose round is cheap to
// compute and never blocks — a simulated client whose timeline is a pure
// function of its start instant, the round and the global model. PlanRound
// returns at once with the round's outcome and the offset from now at
// which that outcome arrives; the Controller posts it as one
// Clock.AfterFunc event instead of running ExecuteRound on a goroutine.
// Executors that really block (training, WrapFaulty's injected delays) stay
// plain Executors and run only on the real clock.
type Planner interface {
	PlanRound(round int, global map[string]*tensor.Matrix) (time.Duration, *ClientUpdate, error)
}

// Validator is optionally implemented by executors that can score a global
// model on local validation data (used for server-side model selection).
type Validator interface {
	Validate(global map[string]*tensor.Matrix) (float64, error)
}

// LocalConfig controls a client's local optimization.
type LocalConfig struct {
	// Epochs per federated round (paper Fig. 3 times one local epoch).
	Epochs int
	// LR is the Adam learning rate (paper Table I: 1e-2; the experiment
	// configs use smaller stable values, see DESIGN.md).
	LR float64
	// BatchSize / ClipNorm feed train.Config. Each local step is one
	// forward pass and one reverse scan over BatchSize examples on the
	// executor's own goroutine, so a client's gradient bits and trainer
	// memory do not depend on GOMAXPROCS or the pool width.
	BatchSize int
	ClipNorm  float64
	// ProxMu adds a FedProx proximal term anchored at each round's global
	// model, taming client drift under partial participation and
	// heterogeneous shards. 0 keeps plain local SGD (FedAvg semantics).
	ProxMu float64
	// Seed derives per-round shuffling and dropout streams, and the
	// site's privacy noise stream.
	Seed int64
	// DeltaNormCap and NoiseSigma are the site's privacy filter, applied
	// to every update before it leaves the site: the update's delta from
	// the round's global model is scaled to an L2 norm of at most
	// DeltaNormCap, then N(0, NoiseSigma²) noise is added to every weight
	// (DP-FedAvg's per-client clip and noise). 0 turns either off.
	DeltaNormCap float64
	NoiseSigma   float64
	// EpochHook, if non-nil, observes each completed local epoch (used by
	// the Fig. 3 demonstration to report per-epoch wall-clock times).
	EpochHook func(client string, round, epoch int, d time.Duration)
}

// withDefaults fills zero fields.
func (c LocalConfig) withDefaults() LocalConfig {
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.LR <= 0 {
		c.LR = 1e-3
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	return c
}

// ClassifierExecutor fine-tunes a classification model on a local shard
// (the paper's ADR fine-tuning task). It holds one train.Trainer for the
// life of the client, so every round of every epoch reuses the same tapes,
// arenas and gradient buffers instead of rebuilding them per batch.
type ClassifierExecutor struct {
	name      string
	mdl       model.Classifier
	trainSet  data.Dataset
	validSet  data.Dataset
	cfg       LocalConfig
	optimizer opt.Optimizer
	trainer   *train.Trainer[data.Example]
}

var (
	_ Executor  = (*ClassifierExecutor)(nil)
	_ Validator = (*ClassifierExecutor)(nil)
)

// NewClassifierExecutor builds a client for classification fine-tuning.
// validSet may be empty (no local validation).
func NewClassifierExecutor(name string, mdl model.Classifier, trainSet, validSet data.Dataset, cfg LocalConfig) (*ClassifierExecutor, error) {
	if name == "" {
		return nil, errors.New("fl: executor needs a name")
	}
	if len(trainSet) == 0 {
		return nil, fmt.Errorf("fl: executor %q has no training data", name)
	}
	if err := cfg.validatePrivacy(); err != nil {
		return nil, fmt.Errorf("fl: executor %q: %w", name, err)
	}
	cfg = cfg.withDefaults()
	e := &ClassifierExecutor{
		name:      name,
		mdl:       mdl,
		trainSet:  trainSet,
		validSet:  validSet,
		cfg:       cfg,
		optimizer: opt.NewAdam(cfg.LR),
	}
	e.trainer = train.NewTrainer(mdl.Params(), mdl.LossBatch, e.optimizer, train.Config{
		BatchSize: cfg.BatchSize,
		ClipNorm:  cfg.ClipNorm,
		ProxMu:    cfg.ProxMu,
	})
	return e, nil
}

// Name implements Executor.
func (e *ClassifierExecutor) Name() string { return e.name }

// NumSamples implements Executor.
func (e *ClassifierExecutor) NumSamples() int { return len(e.trainSet) }

// ExecuteRound implements Executor: load global weights, train Epochs
// local epochs, return the new local weights through the site's privacy
// filter.
func (e *ClassifierExecutor) ExecuteRound(round int, global map[string]*tensor.Matrix) (*ClientUpdate, error) {
	if err := nn.LoadWeights(e.mdl.Params(), global); err != nil {
		return nil, fmt.Errorf("fl: %s load global: %w", e.name, err)
	}
	if e.cfg.ProxMu > 0 {
		if err := e.trainer.SetProxRef(global); err != nil {
			return nil, fmt.Errorf("fl: %s prox ref: %w", e.name, err)
		}
	}
	var lastLoss float64
	for ep := 0; ep < e.cfg.Epochs; ep++ {
		seed := e.cfg.Seed + int64(round)*1000 + int64(ep)
		start := time.Now()
		loss, err := e.trainer.Epoch([]data.Example(e.trainSet), seed)
		if err != nil {
			return nil, fmt.Errorf("fl: %s round %d epoch %d: %w", e.name, round, ep, err)
		}
		if e.cfg.EpochHook != nil {
			e.cfg.EpochHook(e.name, round, ep, time.Since(start))
		}
		lastLoss = loss
	}
	weights := nn.SnapshotWeights(e.mdl.Params())
	e.cfg.privatize(round, weights, global)
	return &ClientUpdate{
		ClientName: e.name,
		Round:      round,
		Weights:    weights,
		NumSamples: len(e.trainSet),
		TrainLoss:  lastLoss,
	}, nil
}

// Validate implements Validator: top-1 accuracy of the global model on the
// client's validation shard. Prediction runs in BatchSize chunks so memory
// stays bounded as the shard grows: each chunk is one batched forward, not
// one giant whole-shard tape.
func (e *ClassifierExecutor) Validate(global map[string]*tensor.Matrix) (float64, error) {
	if len(e.validSet) == 0 {
		return 0, errors.New("fl: no validation data")
	}
	if err := nn.LoadWeights(e.mdl.Params(), global); err != nil {
		return 0, fmt.Errorf("fl: %s load global: %w", e.name, err)
	}
	hits := 0
	for lo := 0; lo < len(e.validSet); lo += e.cfg.BatchSize {
		hi := min(lo+e.cfg.BatchSize, len(e.validSet))
		preds, err := e.mdl.Predict(e.validSet[lo:hi])
		if err != nil {
			return 0, err
		}
		for i, p := range preds {
			if p == e.validSet[lo+i].Label {
				hits++
			}
		}
	}
	return float64(hits) / float64(len(e.validSet)), nil
}

// MLMExecutor pretrains a BERT-family model with the masked-language-model
// objective on a local corpus shard (the paper's federated pretraining
// feasibility study, Fig. 2). Like ClassifierExecutor it holds one
// train.Trainer (and a recycled masked-example buffer) for its lifetime.
type MLMExecutor struct {
	name      string
	mdl       model.Pretrainer
	params    []*nn.Param
	sequences [][]int // encoded, unmasked id sequences
	maskCfg   mlm.Config
	cfg       LocalConfig
	optimizer opt.Optimizer
	trainer   *train.Trainer[mlm.MaskedExample]
	masked    []mlm.MaskedExample // reused epoch masking buffer
}

var _ Executor = (*MLMExecutor)(nil)

// NewMLMExecutor builds a pretraining client. sequences are full (unmasked)
// id sequences; masking is re-randomized every epoch as mlm-pytorch does.
func NewMLMExecutor(name string, mdl model.Pretrainer, params []*nn.Param, sequences [][]int, maskCfg mlm.Config, cfg LocalConfig) (*MLMExecutor, error) {
	if name == "" {
		return nil, errors.New("fl: executor needs a name")
	}
	if len(sequences) == 0 {
		return nil, fmt.Errorf("fl: executor %q has no corpus", name)
	}
	if err := cfg.validatePrivacy(); err != nil {
		return nil, fmt.Errorf("fl: executor %q: %w", name, err)
	}
	if err := maskCfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	e := &MLMExecutor{
		name:      name,
		mdl:       mdl,
		params:    params,
		sequences: sequences,
		maskCfg:   maskCfg,
		cfg:       cfg,
		optimizer: opt.NewAdam(cfg.LR),
	}
	e.trainer = train.NewTrainer(params, mdl.MLMLossBatch, e.optimizer, train.Config{
		BatchSize: cfg.BatchSize,
		ClipNorm:  cfg.ClipNorm,
		ProxMu:    cfg.ProxMu,
	})
	return e, nil
}

// Name implements Executor.
func (e *MLMExecutor) Name() string { return e.name }

// NumSamples implements Executor.
func (e *MLMExecutor) NumSamples() int { return len(e.sequences) }

// maskAll corrupts every sequence with a round/epoch-specific RNG into the
// executor's recycled masking buffer.
func (e *MLMExecutor) maskAll(seed int64) ([]mlm.MaskedExample, error) {
	rng := tensor.NewRNG(seed)
	if cap(e.masked) < len(e.sequences) {
		e.masked = make([]mlm.MaskedExample, len(e.sequences))
	}
	e.masked = e.masked[:len(e.sequences)]
	for i, ids := range e.sequences {
		me, err := mlm.Mask(e.maskCfg, ids, rng)
		if err != nil {
			return nil, err
		}
		e.masked[i] = me
	}
	return e.masked, nil
}

// ExecuteRound implements Executor, with the same privacy filter as
// ClassifierExecutor's.
func (e *MLMExecutor) ExecuteRound(round int, global map[string]*tensor.Matrix) (*ClientUpdate, error) {
	if err := nn.LoadWeights(e.params, global); err != nil {
		return nil, fmt.Errorf("fl: %s load global: %w", e.name, err)
	}
	if e.cfg.ProxMu > 0 {
		if err := e.trainer.SetProxRef(global); err != nil {
			return nil, fmt.Errorf("fl: %s prox ref: %w", e.name, err)
		}
	}
	var lastLoss float64
	for ep := 0; ep < e.cfg.Epochs; ep++ {
		seed := e.cfg.Seed + int64(round)*1000 + int64(ep)
		masked, err := e.maskAll(seed)
		if err != nil {
			return nil, fmt.Errorf("fl: %s mask: %w", e.name, err)
		}
		start := time.Now()
		loss, err := e.trainer.Epoch(masked, seed)
		if err != nil {
			return nil, fmt.Errorf("fl: %s round %d epoch %d: %w", e.name, round, ep, err)
		}
		if e.cfg.EpochHook != nil {
			e.cfg.EpochHook(e.name, round, ep, time.Since(start))
		}
		lastLoss = loss
	}
	weights := nn.SnapshotWeights(e.params)
	e.cfg.privatize(round, weights, global)
	return &ClientUpdate{
		ClientName: e.name,
		Round:      round,
		Weights:    weights,
		NumSamples: len(e.sequences),
		TrainLoss:  lastLoss,
	}, nil
}

// EvalMLMLoss scores the global weights' MLM loss on held-out sequences
// with deterministic masking, for Fig. 2 curves.
func (e *MLMExecutor) EvalMLMLoss(global map[string]*tensor.Matrix, heldOut [][]int, seed int64) (float64, error) {
	if err := nn.LoadWeights(e.params, global); err != nil {
		return 0, err
	}
	rng := tensor.NewRNG(seed)
	masked := make([]mlm.MaskedExample, len(heldOut))
	for i, ids := range heldOut {
		me, err := mlm.Mask(e.maskCfg, ids, rng)
		if err != nil {
			return 0, err
		}
		masked[i] = me
	}
	return train.EvalLoss(masked, e.mdl.MLMLossBatch, e.cfg.BatchSize, seed)
}
