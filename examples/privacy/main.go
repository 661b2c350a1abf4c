// Privacy: federated ADR fine-tuning with a privacy filter at each site —
// the update's delta from the round's global model clipped to an L2 norm
// of 3, then Gaussian noise added (DP-FedAvg's per-client building blocks),
// run before the update leaves the site, where NVFlare runs its
// task-result filters. It prints top-1 accuracy with and without the
// filter beside the validation set's majority-class rate, and claims only
// what those three numbers show.
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

	runOnce := func(normCap, sigma float64) (float64, error) {
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
				fl.LocalConfig{Epochs: 2, LR: 5e-3, BatchSize: 32, ClipNorm: 1, Seed: int64(i),
					DeltaNormCap: normCap, NoiseSigma: sigma})
			if err != nil {
				return 0, err
			}
			executors[i] = exec
		}
		ctrl, err := fl.NewController(fl.ControllerConfig{
			Rounds:   rounds,
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

	positives := 0
	for _, ex := range validSet {
		positives += ex.Label
	}
	majority := float64(max(positives, len(validSet)-positives)) / float64(len(validSet))
	fmt.Printf("majority class (%d validation examples): %.1f%%\n", len(validSet), 100*majority)

	plain, err := runOnce(0, 0)
	if err != nil {
		return err
	}
	fmt.Printf("no privacy filter:                 top-1 acc %.1f%%\n", 100*plain)

	private, err := runOnce(3, 0.005)
	if err != nil {
		return err
	}
	fmt.Printf("site cap 3 + gaussian sigma 5e-3:  top-1 acc %.1f%%\n", 100*private)
	switch {
	case plain == majority && private == majority:
		fmt.Println("\nBoth runs score exactly the majority-class rate, which always predicting")
		fmt.Println("the majority class also scores, so this run shows no privacy/utility trade-off.")
	case private < plain:
		fmt.Printf("\nThe site filter cost %.1f points of top-1 accuracy here.\n", 100*(plain-private))
	default:
		fmt.Println("\nThe site filter cost no top-1 accuracy here.")
	}
	return nil
}
