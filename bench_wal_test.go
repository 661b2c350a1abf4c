// Benchmarks for the durability tax: what one fsync'd WAL append costs in
// isolation (BenchmarkWALAppend*, with the realistic payload of a full
// LSTM client update — as decoded f64 weights, the Controller's record,
// and BenchmarkWALAppendPayload as the int8 uplink the networked Server
// logs verbatim; CI gates BenchmarkWALAppend at 5% of the LSTM round so
// durability stays off the hot path), and what a whole
// WAL-backed federated round costs relative to the identical round
// without one (BenchmarkTable3_FLRoundDurableLSTM vs
// BenchmarkTable3_FLRoundLSTM, tracked in the scoreboard JSON; the
// ratio is core-count dependent, see DESIGN.md).
package clinfl_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"clinfl/internal/data"
	"clinfl/internal/fl"
	"clinfl/internal/fl/durable"
	"clinfl/internal/model"
	"clinfl/internal/nn"
	"clinfl/internal/tensor"
)

// benchWALWeights is a realistic update payload: the full LSTM classifier
// weight map the Table III round ships per client.
func benchWALWeights(b *testing.B) map[string]*tensor.Matrix {
	b.Helper()
	_, vocab := benchCohort(b, 16)
	return nn.SnapshotWeights(benchModel(b, "lstm", vocab).Params())
}

func benchmarkWALAppend(b *testing.B, opts durable.Options) {
	weights := benchWALWeights(b)
	wal, err := durable.Open(filepath.Join(b.TempDir(), "bench.wal"), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer wal.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wal.Append(&durable.Record{
			Type: durable.RecUpdate, Round: i, Client: "site-0",
			NumSamples: 64, TrainLoss: 0.5, PayloadBytes: 1 << 16,
			Weights: weights,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend is the blocking durable append: encode, CRC, write,
// fsync before return.
func BenchmarkWALAppend(b *testing.B) { benchmarkWALAppend(b, durable.Options{}) }

// BenchmarkWALAppendNoSync isolates the encode+CRC+write cost from the
// fsync, which dominates the durable variant.
func BenchmarkWALAppendNoSync(b *testing.B) { benchmarkWALAppend(b, durable.Options{NoSync: true}) }

// BenchmarkWALAppendPayload is BenchmarkWALAppend for the record the
// networked server logs: the same LSTM update as its int8 uplink payload,
// verbatim, not re-encoded as f64 — an eighth of the bytes to CRC, write
// and fsync.
func BenchmarkWALAppendPayload(b *testing.B) {
	payload, err := fl.Int8Codec{}.Encode(benchWALWeights(b))
	if err != nil {
		b.Fatal(err)
	}
	wal, err := durable.Open(filepath.Join(b.TempDir(), "bench.wal"), durable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer wal.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wal.Append(&durable.Record{
			Type: durable.RecUpdatePayload, Round: i, Client: "site-0",
			NumSamples: 64, TrainLoss: 0.5, Payload: payload,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendLazy is the group-committed path the round gather
// actually uses: the caller pays encode+write, the background syncer
// batches the fsyncs, and one Sync barrier at the end settles the tail —
// the per-record cost the <5% round-overhead budget rides on.
func BenchmarkWALAppendLazy(b *testing.B) {
	weights := benchWALWeights(b)
	wal, err := durable.Open(filepath.Join(b.TempDir(), "bench.wal"), durable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer wal.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wal.AppendUpdate(i, "site-0", 64, 0.5, 1<<16, weights); err != nil {
			b.Fatal(err)
		}
	}
	if err := wal.Sync(); err != nil {
		b.Fatal(err)
	}
}

// benchmarkFLRoundDurable mirrors benchmarkFLRound with a group-commit
// WAL attached to the controller. One log is shared across iterations,
// as in a real multi-round run: each timed round pays its lazy record
// writes, while the background syncer flushes the previous round's burst
// under the current round's training — the steady-state pipeline the <5%
// overhead budget is about. The final tail flush settles in Close, off
// the timer (it is one fsync amortized over the whole run).
func benchmarkFLRoundDurable(b *testing.B, name string, clients, perClient int) {
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
	wal, err := durable.Open(filepath.Join(b.TempDir(), "rounds.wal"), durable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	runDurable := func() error {
		ctrl, err := fl.NewController(fl.ControllerConfig{Rounds: 1, WAL: wal}, executors)
		if err != nil {
			return err
		}
		_, err = ctrl.Run(context.Background(), initial)
		return err
	}
	// Warmup, as in the plain variant: grow each executor's persistent
	// trainer so timed rounds measure steady state.
	if err := runDurable(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runDurable(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := wal.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTable3_FLRoundDurableLSTM(b *testing.B) {
	benchmarkFLRoundDurable(b, "lstm", 4, 16)
}

func BenchmarkTable3_FLRoundDurableBERT(b *testing.B) {
	benchmarkFLRoundDurable(b, "bert", 4, 8)
}
