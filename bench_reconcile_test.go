// Benchmark for the reconciliation tax: what a reconcile policy
// (reconcile.Monitor observations, the requeue work queue) costs on a
// round where nothing fails, relative to the identical round under the
// null policy — both run the round engine's one gather loop
// (BenchmarkTable3_FLRoundReconcileLSTM vs
// BenchmarkTable3_FLRoundLSTM — CI gates the overhead at 2%, so the
// control plane stays free until something actually breaks).
package clinfl_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"clinfl/internal/data"
	"clinfl/internal/fl"
	"clinfl/internal/model"
	"clinfl/internal/nn"
	"clinfl/internal/tensor"
)

func benchmarkFLRoundReconcile(b *testing.B, name string, clients, perClient int) {
	ds, vocab := benchCohort(b, clients*perClient+16)
	shards, err := data.PartitionBalanced(ds[:clients*perClient], clients)
	if err != nil {
		b.Fatal(err)
	}
	executors := make([]fl.Executor, clients)
	var ref model.Classifier
	for i, shard := range shards {
		m := benchModel(b, name, vocab)
		if i == 0 {
			ref = m
		}
		exec, err := fl.NewClassifierExecutor(fmt.Sprintf("site-%d", i), m, shard, nil,
			fl.LocalConfig{Epochs: 1, LR: 1e-3, BatchSize: 16, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		executors[i] = exec
	}
	initial := nn.SnapshotWeights(ref.Params())
	if err := runFLRoundReconcile(executors, initial); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runFLRoundReconcile(executors, initial); err != nil {
			b.Fatal(err)
		}
	}
}

func runFLRoundReconcile(executors []fl.Executor, initial map[string]*tensor.Matrix) error {
	ctrl, err := fl.NewController(fl.ControllerConfig{
		Rounds:        1,
		RoundDeadline: time.Minute,
		Reconcile:     &fl.ReconcilePolicy{Substitute: true},
	}, executors)
	if err != nil {
		return err
	}
	_, err = ctrl.Run(context.Background(), initial)
	return err
}

func BenchmarkTable3_FLRoundReconcileLSTM(b *testing.B) {
	benchmarkFLRoundReconcile(b, "lstm", 4, 16)
}
