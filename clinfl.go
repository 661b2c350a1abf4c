// Package clinfl is a pure-Go reproduction of "Multi-Site Clinical
// Federated Learning Using Recursive and Attentive Models and NVFlare"
// (ICDCS 2023): an NVFlare-style federated-learning framework, from-scratch
// LSTM and BERT models for clinical NLP, a synthetic clopidogrel-ADR
// clinical substrate, and a harness regenerating every table and figure of
// the paper's evaluation.
//
// The root package is a thin facade over the internal packages; most users
// drive the system through a Pipeline:
//
//	cfg := clinfl.DefaultConfig(clinfl.TaskFinetune, clinfl.ModeFederated, "lstm")
//	rep, err := clinfl.Run(context.Background(), cfg)
//	fmt.Printf("top-1 accuracy: %.1f%%\n", 100*rep.Accuracy)
//
// See DESIGN.md for the system inventory and, under "Documented
// substitutions", where the reproduction departs from the paper;
// `go run ./cmd/flsim -exp table3` prints measured results beside the
// paper's.
package clinfl

import (
	"context"

	"clinfl/internal/core"
)

// Re-exported pipeline types: the public API surface mirrors the paper's
// Fig. 1 pipeline (task allocation → provision/execution → results).
type (
	// Config fully describes one pipeline run.
	Config = core.Config
	// Report is the pipeline output.
	Report = core.Report
	// Task selects pretraining or fine-tuning.
	Task = core.Task
	// Mode selects centralized, federated or standalone training.
	Mode = core.Mode
	// Partition selects balanced or the paper's imbalanced client split.
	Partition = core.Partition
)

// Task, mode and partition constants (see core package for semantics).
const (
	TaskFinetune = core.TaskFinetune
	TaskPretrain = core.TaskPretrain

	ModeCentralized = core.ModeCentralized
	ModeFederated   = core.ModeFederated
	ModeStandalone  = core.ModeStandalone

	PartitionBalanced   = core.PartitionBalanced
	PartitionImbalanced = core.PartitionImbalanced
)

// DefaultConfig returns the reference scaled-down configuration for a
// task/mode/model combination (model one of "bert", "bert-mini", "lstm").
func DefaultConfig(task Task, mode Mode, modelName string) Config {
	return core.Default(task, mode, modelName)
}

// Run executes one pipeline configuration end to end.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	p, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}
