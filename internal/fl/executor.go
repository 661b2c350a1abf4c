package fl

import (
	"errors"
	"fmt"
	"math"
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
// The update's NumSamples is the client's aggregation weight.
type Executor interface {
	// Name is the client/site identity.
	Name() string
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
// Executors that really block (local training, or a wrapper that sleeps
// to play a straggler) stay plain Executors and run only on the real clock.
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

// validate rejects settings no site could honour, before any site trains.
// A NaN or infinite LR, ClipNorm or ProxMu would train every round to
// non-finite weights or silently turn its knob off; a negative one keeps
// its meaning of default or off. DeltaNormCap must be a non-negative
// number and NoiseSigma a finite non-negative one.
func (c LocalConfig) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"LR", c.LR}, {"ClipNorm", c.ClipNorm}, {"ProxMu", c.ProxMu}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("fl: %s %v must be a finite number", f.name, f.v)
		}
	}
	if !(c.DeltaNormCap >= 0) {
		return fmt.Errorf("fl: DeltaNormCap %v must be a non-negative number (0 is off)", c.DeltaNormCap)
	}
	if !(c.NoiseSigma >= 0) || math.IsInf(c.NoiseSigma, 1) {
		return fmt.Errorf("fl: NoiseSigma %v must be a finite non-negative number (0 is off)", c.NoiseSigma)
	}
	return nil
}

// site is the local round both executors run, written once: load the
// global model, anchor FedProx at it, train Epochs epochs, and return the
// weights through the site's privacy filter. It holds one train.Trainer
// for the life of the client, so every round of every epoch reuses the
// same tapes, arenas and gradient buffers instead of rebuilding them per
// batch. An executor supplies the loss and epochItems, which makes an
// epoch's items from its seed.
type site[T any] struct {
	name       string
	params     []*nn.Param
	samples    int
	cfg        LocalConfig
	trainer    *train.Trainer[T]
	epochItems func(seed int64) ([]T, error)
}

// newSite checks name, samples and cfg, and builds the site's Adam
// optimizer and trainer.
func newSite[T any](name string, params []*nn.Param, samples int, loss train.LossFunc[T], epochItems func(int64) ([]T, error), cfg LocalConfig) (site[T], error) {
	if name == "" {
		return site[T]{}, errors.New("fl: executor needs a name")
	}
	if samples == 0 {
		return site[T]{}, fmt.Errorf("fl: executor %q has no training data", name)
	}
	if err := cfg.validate(); err != nil {
		return site[T]{}, fmt.Errorf("fl: executor %q: %w", name, err)
	}
	cfg = cfg.withDefaults()
	return site[T]{
		name:    name,
		params:  params,
		samples: samples,
		cfg:     cfg,
		trainer: train.NewTrainer(params, loss, opt.NewAdam(cfg.LR), train.Config{
			BatchSize: cfg.BatchSize,
			ClipNorm:  cfg.ClipNorm,
			ProxMu:    cfg.ProxMu,
		}),
		epochItems: epochItems,
	}, nil
}

// Name implements Executor.
func (s *site[T]) Name() string { return s.name }

// ExecuteRound implements Executor: load global weights, train Epochs
// local epochs, return the new local weights through the site's privacy
// filter.
func (s *site[T]) ExecuteRound(round int, global map[string]*tensor.Matrix) (*ClientUpdate, error) {
	if err := nn.LoadWeights(s.params, global); err != nil {
		return nil, fmt.Errorf("fl: %s load global: %w", s.name, err)
	}
	if s.cfg.ProxMu > 0 {
		if err := s.trainer.SetProxRef(global); err != nil {
			return nil, fmt.Errorf("fl: %s prox ref: %w", s.name, err)
		}
	}
	var lastLoss float64
	for ep := 0; ep < s.cfg.Epochs; ep++ {
		seed := s.cfg.Seed + int64(round)*1000 + int64(ep)
		items, err := s.epochItems(seed)
		if err != nil {
			return nil, fmt.Errorf("fl: %s round %d epoch %d: %w", s.name, round, ep, err)
		}
		start := time.Now()
		if lastLoss, err = s.trainer.Epoch(items, seed); err != nil {
			return nil, fmt.Errorf("fl: %s round %d epoch %d: %w", s.name, round, ep, err)
		}
		if s.cfg.EpochHook != nil {
			s.cfg.EpochHook(s.name, round, ep, time.Since(start))
		}
	}
	weights := nn.SnapshotWeights(s.params)
	s.cfg.privatize(round, weights, global)
	return &ClientUpdate{
		ClientName: s.name,
		Round:      round,
		Weights:    weights,
		NumSamples: s.samples,
		TrainLoss:  lastLoss,
	}, nil
}

// ClassifierExecutor fine-tunes a classification model on a local shard
// (the paper's ADR fine-tuning task). Every epoch trains on the whole
// shard.
type ClassifierExecutor struct {
	site[data.Example]
	mdl      model.Classifier
	validSet data.Dataset
}

var (
	_ Executor  = (*ClassifierExecutor)(nil)
	_ Validator = (*ClassifierExecutor)(nil)
)

// NewClassifierExecutor builds a client for classification fine-tuning.
// validSet may be empty (no local validation).
func NewClassifierExecutor(name string, mdl model.Classifier, trainSet, validSet data.Dataset, cfg LocalConfig) (*ClassifierExecutor, error) {
	shard := func(int64) ([]data.Example, error) { return trainSet, nil }
	s, err := newSite(name, mdl.Params(), len(trainSet), mdl.LossBatch, shard, cfg)
	if err != nil {
		return nil, err
	}
	return &ClassifierExecutor{site: s, mdl: mdl, validSet: validSet}, nil
}

// Validate implements Validator: top-1 accuracy of the global model on the
// client's validation shard. Prediction runs in BatchSize chunks so memory
// stays bounded as the shard grows: each chunk is one batched forward, not
// one giant whole-shard tape.
func (e *ClassifierExecutor) Validate(global map[string]*tensor.Matrix) (float64, error) {
	if len(e.validSet) == 0 {
		return 0, errors.New("fl: no validation data")
	}
	if err := nn.LoadWeights(e.params, global); err != nil {
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
// feasibility study, Fig. 2). Every epoch re-masks the corpus into one
// recycled buffer.
type MLMExecutor struct {
	site[mlm.MaskedExample]
	sequences [][]int // encoded, unmasked id sequences
	maskCfg   mlm.Config
	masked    []mlm.MaskedExample // reused epoch masking buffer
}

var _ Executor = (*MLMExecutor)(nil)

// NewMLMExecutor builds a pretraining client. sequences are full (unmasked)
// id sequences; masking is re-randomized every epoch as mlm-pytorch does.
func NewMLMExecutor(name string, mdl model.Pretrainer, params []*nn.Param, sequences [][]int, maskCfg mlm.Config, cfg LocalConfig) (*MLMExecutor, error) {
	e := &MLMExecutor{sequences: sequences, maskCfg: maskCfg}
	s, err := newSite(name, params, len(sequences), mdl.MLMLossBatch, e.maskAll, cfg)
	if err != nil {
		return nil, err
	}
	if err := maskCfg.Validate(); err != nil {
		return nil, err
	}
	e.site = s
	return e, nil
}

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
