// Benchmarks regenerating the cost profile of every table and figure in
// the paper's evaluation (Sec. IV), plus the ablations called out in
// DESIGN.md. Run with:
//
//	go test -run '^$' -bench . -benchmem
//
// Nothing records or gates on these: the repository's benchmark is bench/
// (see bench/README.md), and the dense GEMM microbenchmarks sit beside the
// kernels in internal/tensor.
//
// Naming: BenchmarkTable2_* measure the Table II architectures' forward
// cost; BenchmarkTable3_* measure one federated fine-tuning round per
// architecture; BenchmarkFig2_* one federated MLM pretraining round;
// BenchmarkFig3_* one full secure networked round. Absolute numbers
// reflect this reproduction's pure-Go CPU substrate, not the paper's GPUs;
// relative cost between models/schemes is the reproduction target.
package clinfl_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"clinfl/internal/data"
	"clinfl/internal/ehr"
	"clinfl/internal/experiments"
	"clinfl/internal/fl"
	"clinfl/internal/mlm"
	"clinfl/internal/model"
	"clinfl/internal/nn"
	"clinfl/internal/tensor"
	"clinfl/internal/token"
)

// benchCohort builds a small encoded ADR dataset shared by benchmarks.
func benchCohort(b *testing.B, n int) (data.Dataset, int) {
	b.Helper()
	cfg := ehr.DefaultConfig()
	cfg.Patients = n
	cfg.CorpusSentences = 1
	patients, err := ehr.GenerateCohort(cfg)
	if err != nil {
		b.Fatal(err)
	}
	streams := make([][]string, len(patients))
	for i, p := range patients {
		streams[i] = p.Tokens
	}
	vocab, err := token.BuildVocab(streams, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	tok, err := token.NewTokenizer(vocab, 24)
	if err != nil {
		b.Fatal(err)
	}
	ds := make(data.Dataset, len(patients))
	for i, p := range patients {
		ids, padMask := tok.Encode(p.Tokens)
		ds[i] = data.Example{IDs: ids, PadMask: padMask, Label: p.Outcome}
	}
	return ds, vocab.Size()
}

// benchModel instantiates a Table II architecture over the bench vocab.
func benchModel(b *testing.B, name string, vocabSize int) model.Classifier {
	b.Helper()
	spec, err := model.SpecByName(name)
	if err != nil {
		b.Fatal(err)
	}
	m, err := model.New(spec, vocabSize, 24, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// --- Table II: per-architecture inference cost ---

func benchmarkForward(b *testing.B, name string) {
	ds, vocab := benchCohort(b, 64)
	m := benchModel(b, name, vocab)
	batch := []data.Example(ds[:16])
	// One warmup pass grows the model's recycled eval context (arena slabs,
	// tape node pool) to its working-set size, so the timed iterations
	// measure the steady state the serving path actually runs in.
	if _, err := m.Predict(batch); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nn.NumParams(m.Params())), "params")
}

func BenchmarkTable2_ForwardLSTM(b *testing.B)     { benchmarkForward(b, "lstm") }
func BenchmarkTable2_ForwardBERTMini(b *testing.B) { benchmarkForward(b, "bert-mini") }
func BenchmarkTable2_ForwardBERT(b *testing.B)     { benchmarkForward(b, "bert") }

// --- Table III: one federated fine-tuning round per architecture ---

func benchmarkFLRound(b *testing.B, name string, clients int, perClient int) {
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
	// Warmup round: grows each executor's persistent Trainer (tapes, arenas,
	// gradient buffers) so the timed rounds measure steady-state cost.
	if err := runFLRound(executors, initial); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runFLRound(executors, initial); err != nil {
			b.Fatal(err)
		}
	}
}

func runFLRound(executors []fl.Executor, initial map[string]*tensor.Matrix) error {
	ctrl, err := fl.NewController(fl.ControllerConfig{Rounds: 1}, executors)
	if err != nil {
		return err
	}
	_, err = ctrl.Run(context.Background(), initial)
	return err
}

func BenchmarkTable3_FLRoundLSTM(b *testing.B)     { benchmarkFLRound(b, "lstm", 4, 16) }
func BenchmarkTable3_FLRoundBERTMini(b *testing.B) { benchmarkFLRound(b, "bert-mini", 4, 16) }
func BenchmarkTable3_FLRoundBERT(b *testing.B)     { benchmarkFLRound(b, "bert", 4, 8) }

// --- Fig. 2: one federated MLM pretraining round ---

func BenchmarkFig2_MLMRound(b *testing.B) {
	cfg := ehr.DefaultConfig()
	cfg.CorpusSentences = 80
	corpus, err := ehr.GenerateCorpus(cfg)
	if err != nil {
		b.Fatal(err)
	}
	vocab, err := token.BuildVocab(corpus, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	tok, err := token.NewTokenizer(vocab, 20)
	if err != nil {
		b.Fatal(err)
	}
	seqs := make([][]int, len(corpus))
	for i, sent := range corpus {
		ids, _ := tok.Encode(sent)
		seqs[i] = ids
	}
	const clients = 4
	maskCfg := mlm.DefaultConfig(vocab.Size())
	executors := make([]fl.Executor, clients)
	var ref *model.BERT
	for i := 0; i < clients; i++ {
		spec := model.SpecBERTMini
		mc, err := model.New(spec, vocab.Size(), 20, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		bm := mc.(*model.BERT)
		if i == 0 {
			ref = bm
		}
		lo, hi := i*len(seqs)/clients, (i+1)*len(seqs)/clients
		exec, err := fl.NewMLMExecutor(fmt.Sprintf("site-%d", i), bm, bm.Params(), seqs[lo:hi], maskCfg,
			fl.LocalConfig{Epochs: 1, LR: 1e-3, BatchSize: 16, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		executors[i] = exec
	}
	initial := nn.SnapshotWeights(ref.Params())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl, err := fl.NewController(fl.ControllerConfig{Rounds: 1}, executors)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctrl.Run(context.Background(), initial); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 3: full secure networked lifecycle (provision + TLS + rounds) ---

func BenchmarkFig3_SecureDeployment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig3(context.Background(), io.Discard, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblation_AggregationFedAvg vs Mean: aggregation cost over
// realistic LSTM-sized updates.
func benchmarkAggregation(b *testing.B, agg fl.Aggregator) {
	_, vocab := benchCohort(b, 32)
	const clients = 8
	updates := make([]*fl.ClientUpdate, clients)
	for i := range updates {
		m := benchModel(b, "lstm", vocab)
		updates[i] = &fl.ClientUpdate{
			ClientName: fmt.Sprintf("site-%d", i),
			Weights:    nn.SnapshotWeights(m.Params()),
			NumSamples: 10 + i,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.Aggregate(updates); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_AggregationFedAvg(b *testing.B) { benchmarkAggregation(b, fl.FedAvg{}) }
func BenchmarkAblation_AggregationMean(b *testing.B)   { benchmarkAggregation(b, fl.MeanAggregator{}) }

// benchmarkLocalRound: cost of one site round under a local config.
func benchmarkLocalRound(b *testing.B, cfg fl.LocalConfig) {
	ds, vocab := benchCohort(b, 80)
	m := benchModel(b, "lstm", vocab)
	cfg.LR, cfg.BatchSize, cfg.Seed = 1e-3, 16, 1
	exec, err := fl.NewClassifierExecutor("site", m, ds[:64], nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	initial := nn.SnapshotWeights(m.Params())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.ExecuteRound(i, initial); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_LocalEpochs: cost of one round as local epochs grow.
func BenchmarkAblation_LocalEpochs1(b *testing.B) { benchmarkLocalRound(b, fl.LocalConfig{Epochs: 1}) }
func BenchmarkAblation_LocalEpochs2(b *testing.B) { benchmarkLocalRound(b, fl.LocalConfig{Epochs: 2}) }
func BenchmarkAblation_LocalEpochs4(b *testing.B) { benchmarkLocalRound(b, fl.LocalConfig{Epochs: 4}) }

// BenchmarkAblation_PrivacyFilters: one site round with the site's privacy
// filter on (delta norm cap + Gaussian noise), beside LocalEpochs1's
// round with it off.
func BenchmarkAblation_PrivacyFilters(b *testing.B) {
	benchmarkLocalRound(b, fl.LocalConfig{Epochs: 1, DeltaNormCap: 1, NoiseSigma: 0.01})
}

// BenchmarkAblation_WeightSerialization: parameter-exchange encode/decode
// cost (the FL wire path).
func BenchmarkAblation_WeightSerialization(b *testing.B) {
	_, vocab := benchCohort(b, 32)
	m := benchModel(b, "lstm", vocab)
	weights := nn.SnapshotWeights(m.Params())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := fl.EncodeWeights(weights)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fl.DecodeWeights(blob); err != nil {
			b.Fatal(err)
		}
	}
}
