// Privacy: federated ADR fine-tuning with NVFlare-style privacy filters —
// per-client delta norm capping plus Gaussian noise (the building blocks
// of DP-FedAvg) applied server-side before aggregation. Compares accuracy
// with and without the filter chain to show the privacy/utility trade-off
// the framework's "privacy preservation" feature manages.
package main

import (
	"context"
	"fmt"
	"os"

	"clinfl/internal/core"
	"clinfl/internal/data"
	"clinfl/internal/ehr"
	"clinfl/internal/fl"
	"clinfl/internal/model"
	"clinfl/internal/nn"
	"clinfl/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "privacy:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		clients = 4
		rounds  = 3
		maxLen  = 16
	)
	// Small synthetic cohort.
	ecfg := ehr.DefaultConfig()
	ecfg.Patients = 400
	ecfg.CorpusSentences = 1
	// Shuffle seed 0: the examples are shuffled with the stream 17.
	all, vocab, err := core.EncodeCohort(ecfg, maxLen, 0)
	if err != nil {
		return err
	}
	trainSet, validSet := all[:256], all[256:360]
	shards, err := data.PartitionBalanced(trainSet, clients)
	if err != nil {
		return err
	}

	runOnce := func(filters []fl.Filter) (float64, error) {
		valModel, err := model.NewLSTMClassifier(model.LSTMConfig{
			Name: "lstm", VocabSize: vocab.Size(), Dim: 64, Hidden: 64, Layers: 1, NumClasses: 2,
		}, 1)
		if err != nil {
			return 0, err
		}
		executors := make([]fl.Executor, clients)
		for i := range executors {
			mdl, err := model.NewLSTMClassifier(model.LSTMConfig{
				Name: "lstm", VocabSize: vocab.Size(), Dim: 64, Hidden: 64, Layers: 1, NumClasses: 2,
			}, 1)
			if err != nil {
				return 0, err
			}
			exec, err := fl.NewClassifierExecutor(fmt.Sprintf("site-%d", i+1), mdl, shards[i], nil,
				fl.LocalConfig{Epochs: 2, LR: 5e-3, BatchSize: 32, ClipNorm: 1, Seed: int64(i)})
			if err != nil {
				return 0, err
			}
			executors[i] = exec
		}
		ctrl, err := fl.NewController(fl.ControllerConfig{
			Rounds:   rounds,
			Filters:  filters,
			Validate: core.AccuracyValidator(valModel, validSet),
		}, executors)
		if err != nil {
			return 0, err
		}
		res, err := ctrl.Run(context.Background(), nn.SnapshotWeights(valModel.Params()))
		if err != nil {
			return 0, err
		}
		return res.History.BestScore, nil
	}

	plain, err := runOnce(nil)
	if err != nil {
		return err
	}
	fmt.Printf("no filters:                       top-1 acc %.1f%%\n", 100*plain)

	private, err := runOnce([]fl.Filter{
		fl.NormCapFilter{Cap: 3},
		fl.GaussianNoiseFilter{Sigma: 0.005, RNG: tensor.NewRNG(42)},
	})
	if err != nil {
		return err
	}
	fmt.Printf("norm cap 3 + gaussian sigma 5e-3: top-1 acc %.1f%%\n", 100*private)
	fmt.Println("\nModest clipping/noise preserves most utility; raising sigma tightens")
	fmt.Println("privacy at an accuracy cost (tune per the Gaussian-mechanism budget).")
	return nil
}
