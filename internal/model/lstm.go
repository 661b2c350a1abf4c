package model

import (
	"errors"
	"fmt"

	"clinfl/internal/autograd"
	"clinfl/internal/data"
	"clinfl/internal/nn"
	"clinfl/internal/tensor"
	"clinfl/internal/token"
)

// LSTMConfig parameterizes the recursive classifier (Table II row "LSTM":
// hidden 128, 3 layers).
type LSTMConfig struct {
	Name       string
	VocabSize  int
	Dim        int // embedding width
	Hidden     int // recurrent width
	Layers     int
	NumClasses int
}

// Validate checks the configuration.
func (c LSTMConfig) Validate() error {
	if c.VocabSize <= token.NumSpecial {
		return fmt.Errorf("model: lstm vocab %d too small", c.VocabSize)
	}
	if c.Dim <= 0 || c.Hidden <= 0 || c.Layers <= 0 {
		return errors.New("model: lstm geometry must be positive")
	}
	if c.NumClasses < 2 {
		return fmt.Errorf("model: lstm needs >=2 classes, got %d", c.NumClasses)
	}
	return nil
}

// LSTMClassifier embeds token sequences, runs a stacked LSTM, and
// classifies from the final hidden state at each sequence's last non-pad
// position. Unlike the transformer it processes whole minibatches on one
// tape: timestep t of every sequence forms one B×dim matrix.
type LSTMClassifier struct {
	cfg    LSTMConfig
	emb    *nn.Embedding
	lstm   *nn.LSTM
	out    *nn.Linear
	params []*nn.Param
}

var _ Classifier = (*LSTMClassifier)(nil)

// NewLSTMClassifier builds the model with seed-derived init.
func NewLSTMClassifier(cfg LSTMConfig, seed int64) (*LSTMClassifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed)
	name := cfg.Name
	if name == "" {
		name = "lstm"
	}
	m := &LSTMClassifier{
		cfg:  cfg,
		emb:  nn.NewEmbedding(name+".emb", cfg.VocabSize, cfg.Dim, rng),
		lstm: nn.NewLSTM(name+".lstm", cfg.Layers, cfg.Dim, cfg.Hidden, rng),
		out:  nn.NewLinear(name+".out", cfg.Hidden, cfg.NumClasses, rng),
	}
	var err error
	m.params, err = nn.CollectParams(m.emb, m.lstm, m.out)
	if err != nil {
		return nil, fmt.Errorf("model: %s params: %w", name, err)
	}
	return m, nil
}

// Name implements Classifier.
func (m *LSTMClassifier) Name() string { return m.cfg.Name }

// Config returns the model configuration.
func (m *LSTMClassifier) Config() LSTMConfig { return m.cfg }

// Params implements Classifier.
func (m *LSTMClassifier) Params() []*nn.Param { return m.params }

// logitsBatch runs the batched forward pass, returning B×NumClasses logits.
func (m *LSTMClassifier) logitsBatch(ctx *nn.Ctx, batch []data.Example) (*autograd.Node, error) {
	if len(batch) == 0 {
		return nil, errors.New("model: empty batch")
	}
	seqLen := len(batch[0].IDs)
	lengths := make([]int, len(batch))
	for i, ex := range batch {
		if len(ex.IDs) != seqLen {
			return nil, fmt.Errorf("model: ragged batch: example %d has %d ids, want %d", i, len(ex.IDs), seqLen)
		}
		lengths[i] = ex.Len()
		if lengths[i] == 0 {
			return nil, fmt.Errorf("model: example %d is all padding", i)
		}
	}

	// Column-major gather: timestep t across the whole batch.
	xs := make([]*autograd.Node, seqLen)
	idsAt := make([]int, len(batch))
	for t := 0; t < seqLen; t++ {
		for i, ex := range batch {
			idsAt[i] = ex.IDs[t]
		}
		x, err := m.emb.Forward(ctx, idsAt)
		if err != nil {
			return nil, err
		}
		xs[t] = x
	}
	hs, err := m.lstm.Forward(ctx, xs)
	if err != nil {
		return nil, err
	}

	// Final hidden state per example = top-layer h at its last real token.
	finals := make([]*autograd.Node, len(batch))
	for i, ln := range lengths {
		h, err := ctx.Tape.SliceRows(hs[ln-1], i, i+1)
		if err != nil {
			return nil, err
		}
		finals[i] = h
	}
	hFinal, err := ctx.Tape.ConcatRows(finals...)
	if err != nil {
		return nil, err
	}
	return m.out.Forward(ctx, hFinal)
}

// LossBatch implements Classifier: summed cross-entropy over the batch.
func (m *LSTMClassifier) LossBatch(ctx *nn.Ctx, batch []data.Example) (*autograd.Node, int, error) {
	logits, err := m.logitsBatch(ctx, batch)
	if err != nil {
		return nil, 0, err
	}
	loss, counted, err := ctx.Tape.CrossEntropy(logits, data.Dataset(batch).Labels())
	if err != nil {
		return nil, 0, err
	}
	return ctx.Tape.Scale(float64(counted), loss), counted, nil
}

// Predict implements Classifier.
func (m *LSTMClassifier) Predict(batch []data.Example) ([]int, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	ctx := nn.NewCtx(false, nil)
	logits, err := m.logitsBatch(ctx, batch)
	if err != nil {
		return nil, err
	}
	return tensor.ArgmaxRows(logits.Value), nil
}
