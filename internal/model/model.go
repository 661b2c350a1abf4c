// Package model implements the paper's three medical NLP models (Table II):
//
//	BERT       — hidden 128, 6 attention heads, 12 encoder layers
//	BERT-mini  — hidden  50, 2 attention heads,  6 encoder layers
//	LSTM       — hidden 128, 3 recurrent layers
//
// plus the MLM pretraining head and the binary ADR classification head the
// experiments fine-tune. All three expose the same Classifier interface so
// the federated-learning stack is model-agnostic.
package model

import (
	"fmt"

	"clinfl/internal/autograd"
	"clinfl/internal/data"
	"clinfl/internal/mlm"
	"clinfl/internal/nn"
)

// Classifier is a trainable sequence classifier. Implementations must allow
// concurrent LossBatch calls on distinct Ctx values (parameters are only
// read during forward/backward).
type Classifier interface {
	// Name identifies the architecture ("bert", "bert-mini", "lstm").
	Name() string
	// Params returns all trainable parameters.
	Params() []*nn.Param
	// LossBatch computes the summed classification loss over batch on
	// ctx's tape, returning the loss node and the example count.
	LossBatch(ctx *nn.Ctx, batch []data.Example) (*autograd.Node, int, error)
	// Predict returns argmax class predictions in eval mode.
	Predict(batch []data.Example) ([]int, error)
}

// Pretrainer is a model supporting masked-language-model pretraining
// (BERT and BERT-mini; the LSTM classifier does not pretrain in the paper).
type Pretrainer interface {
	// MLMLossBatch computes the summed MLM loss over the masked batch,
	// returning the loss node and the number of predicted positions.
	MLMLossBatch(ctx *nn.Ctx, batch []mlm.MaskedExample) (*autograd.Node, int, error)
}

// Spec describes an architecture as in Table II.
type Spec struct {
	Kind    string // "bert", "bert-mini", or "lstm"
	Hidden  int
	Heads   int // attention heads; 0 for LSTM
	Layers  int
	Dropout float64 // transformer dropout
}

// Table II architecture specifications.
var (
	// SpecBERT is the paper's BERT row: hidden 128, 6 heads, 12 layers.
	SpecBERT = Spec{Kind: "bert", Hidden: 128, Heads: 6, Layers: 12, Dropout: 0.1}
	// SpecBERTMini is the BERT-mini row: hidden 50, 2 heads, 6 layers.
	SpecBERTMini = Spec{Kind: "bert-mini", Hidden: 50, Heads: 2, Layers: 6, Dropout: 0.1}
	// SpecLSTM is the LSTM row: hidden 128, 3 layers.
	SpecLSTM = Spec{Kind: "lstm", Hidden: 128, Layers: 3}
)

// SpecByName returns the Table II spec for name.
func SpecByName(name string) (Spec, error) {
	switch name {
	case "bert":
		return SpecBERT, nil
	case "bert-mini":
		return SpecBERTMini, nil
	case "lstm":
		return SpecLSTM, nil
	default:
		return Spec{}, fmt.Errorf("model: unknown architecture %q", name)
	}
}

// Scaled returns a copy of the spec with depth/width reduced by factor
// (>=1), used by tests and short benchmarks; factor 1 is the paper spec.
func (s Spec) Scaled(factor int) Spec {
	if factor <= 1 {
		return s
	}
	out := s
	out.Hidden = max(8, s.Hidden/factor)
	if out.Heads > 0 {
		out.Heads = max(1, s.Heads/factor)
	}
	out.Layers = max(1, s.Layers/factor)
	return out
}

// New instantiates a classifier for spec over the given vocabulary/sequence
// geometry, with numClasses output classes, seeded deterministically.
func New(spec Spec, vocabSize, maxLen, numClasses int, seed int64) (Classifier, error) {
	switch spec.Kind {
	case "bert", "bert-mini":
		return NewBERT(BERTConfig{
			Name:       spec.Kind,
			VocabSize:  vocabSize,
			MaxLen:     maxLen,
			Dim:        spec.Hidden,
			Layers:     spec.Layers,
			Heads:      spec.Heads,
			Dropout:    spec.Dropout,
			NumClasses: numClasses,
		}, seed)
	case "lstm":
		return NewLSTMClassifier(LSTMConfig{
			Name:       spec.Kind,
			VocabSize:  vocabSize,
			Dim:        spec.Hidden,
			Hidden:     spec.Hidden,
			Layers:     spec.Layers,
			NumClasses: numClasses,
		}, seed)
	default:
		return nil, fmt.Errorf("model: unknown kind %q", spec.Kind)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
