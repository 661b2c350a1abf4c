package fl

import (
	"testing"

	"clinfl/internal/data"
	"clinfl/internal/mlm"
	"clinfl/internal/model"
	"clinfl/internal/nn"
	"clinfl/internal/sched"
	"clinfl/internal/tensor"
	"clinfl/internal/token"
)

// tinyClassifier builds a minimal LSTM classifier for executor tests.
func tinyClassifier(t *testing.T, seed int64) model.Classifier {
	t.Helper()
	m, err := model.NewLSTMClassifier(model.LSTMConfig{
		Name: "tiny", VocabSize: 32, Dim: 8, Hidden: 8, Layers: 1, NumClasses: 2,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tinyDataset builds n labeled examples over the tiny vocab.
func tinyDataset(n int, seed int64) data.Dataset {
	rng := tensor.NewRNG(seed)
	ds := make(data.Dataset, n)
	for i := range ds {
		ids := []int{token.CLS, 0, 0, token.SEP}
		label := rng.Intn(2)
		// Signal token at position 1 encodes the label.
		ids[1] = 10 + label
		ids[2] = token.NumSpecial + rng.Intn(20)
		ds[i] = data.Example{IDs: ids, PadMask: make([]bool, 4), Label: label}
	}
	return ds
}

func TestClassifierExecutorRound(t *testing.T) {
	mdl := tinyClassifier(t, 1)
	ds := tinyDataset(32, 2)
	exec, err := NewClassifierExecutor("site", mdl, ds, ds[:8], LocalConfig{
		Epochs: 2, LR: 1e-2, BatchSize: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Name() != "site" {
		t.Fatalf("identity wrong: %s", exec.Name())
	}
	global := nn.SnapshotWeights(mdl.Params())
	update, err := exec.ExecuteRound(0, global)
	if err != nil {
		t.Fatal(err)
	}
	if update.NumSamples != 32 || update.ClientName != "site" {
		t.Fatalf("update metadata wrong: %+v", update.ClientName)
	}
	// Training must have moved the weights away from the global.
	moved := false
	for name, m := range update.Weights {
		if !m.Equal(global[name]) {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("local training produced identical weights")
	}
	// The returned update is a snapshot: mutating the model afterwards
	// must not change it.
	snapshot := update.Weights["tiny.out.weight"].Clone()
	if _, err := exec.ExecuteRound(1, global); err != nil {
		t.Fatal(err)
	}
	if !update.Weights["tiny.out.weight"].Equal(snapshot) {
		t.Fatal("update weights aliased into live model")
	}
}

func TestClassifierExecutorLoadsGlobal(t *testing.T) {
	mdl := tinyClassifier(t, 1)
	ds := tinyDataset(16, 3)
	// LR below any meaningful step (LocalConfig treats <=0 as "default",
	// so use a tiny positive value): the update must stay within epsilon
	// of the incoming global, proving the load happened.
	exec, err := NewClassifierExecutor("site", mdl, ds, nil, LocalConfig{Epochs: 1, LR: 1e-12, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	other := tinyClassifier(t, 99)
	global := nn.SnapshotWeights(other.Params())
	update, err := exec.ExecuteRound(0, global)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range update.Weights {
		if !m.AllClose(global[name], 1e-6, 1e-6) {
			t.Fatalf("param %q not loaded from global", name)
		}
	}
}

func TestClassifierExecutorValidate(t *testing.T) {
	mdl := tinyClassifier(t, 1)
	ds := tinyDataset(64, 4)
	exec, err := NewClassifierExecutor("site", mdl, ds[:48], ds[48:], LocalConfig{
		Epochs: 6, LR: 2e-2, BatchSize: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	global := nn.SnapshotWeights(mdl.Params())
	var update *ClientUpdate
	for round := 0; round < 3; round++ {
		update, err = exec.ExecuteRound(round, global)
		if err != nil {
			t.Fatal(err)
		}
		global = update.Weights
	}
	acc, err := exec.Validate(global)
	if err != nil {
		t.Fatal(err)
	}
	// The signal token determines the label exactly; a trained model must
	// beat chance comfortably.
	if acc < 0.8 {
		t.Fatalf("validation accuracy %.3f after training on a trivial rule", acc)
	}
}

func TestClassifierExecutorValidateWithoutData(t *testing.T) {
	mdl := tinyClassifier(t, 1)
	exec, err := NewClassifierExecutor("site", mdl, tinyDataset(8, 5), nil, LocalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Validate(nn.SnapshotWeights(mdl.Params())); err == nil {
		t.Fatal("want error for missing validation data")
	}
}

func TestExecutorConstructionErrors(t *testing.T) {
	mdl := tinyClassifier(t, 1)
	if _, err := NewClassifierExecutor("", mdl, tinyDataset(4, 6), nil, LocalConfig{}); err == nil {
		t.Fatal("want error for empty name")
	}
	if _, err := NewClassifierExecutor("site", mdl, nil, nil, LocalConfig{}); err == nil {
		t.Fatal("want error for empty data")
	}
}

func TestMLMExecutorRound(t *testing.T) {
	bc, err := model.NewBERT(model.BERTConfig{
		Name: "tinybert", VocabSize: 32, MaxLen: 8, Dim: 8, Layers: 1, Heads: 1, NumClasses: 2,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]int, 12)
	rng := tensor.NewRNG(7)
	for i := range seqs {
		ids := make([]int, 8)
		ids[0] = token.CLS
		for j := 1; j < 7; j++ {
			ids[j] = token.NumSpecial + rng.Intn(20)
		}
		ids[7] = token.SEP
		seqs[i] = ids
	}
	exec, err := NewMLMExecutor("site", bc, bc.Params(), seqs, mlm.DefaultConfig(32), LocalConfig{
		Epochs: 1, LR: 1e-3, BatchSize: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	global := nn.SnapshotWeights(bc.Params())
	update, err := exec.ExecuteRound(0, global)
	if err != nil {
		t.Fatal(err)
	}
	if update.NumSamples != 12 {
		t.Fatalf("num samples %d", update.NumSamples)
	}
	if update.TrainLoss <= 0 {
		t.Fatalf("train loss %v", update.TrainLoss)
	}
}

func TestMLMExecutorConstructionErrors(t *testing.T) {
	bc, err := model.NewBERT(model.BERTConfig{
		Name: "tinybert2", VocabSize: 32, MaxLen: 8, Dim: 8, Layers: 1, Heads: 1, NumClasses: 2,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mlm.DefaultConfig(32)
	if _, err := NewMLMExecutor("", bc, bc.Params(), [][]int{{token.CLS}}, cfg, LocalConfig{}); err == nil {
		t.Fatal("want error for empty name")
	}
	if _, err := NewMLMExecutor("site", bc, bc.Params(), nil, cfg, LocalConfig{}); err == nil {
		t.Fatal("want error for empty corpus")
	}
	bad := cfg
	bad.MaskProb = 0
	if _, err := NewMLMExecutor("site", bc, bc.Params(), [][]int{{token.CLS}}, bad, LocalConfig{}); err == nil {
		t.Fatal("want error for bad mask config")
	}
}

// TestClassifierExecutorValidateParallelMatchesSerial pins the chunked
// validation: the accuracy computed with each chunk's kernels fanned
// across a multi-worker pool must equal the single-worker result exactly
// (hit counting is integer arithmetic, and the kernels chunk by loop
// shape, so any divergence means a chunk was dropped or double-counted).
func TestClassifierExecutorValidateParallelMatchesSerial(t *testing.T) {
	mdl := tinyClassifier(t, 1)
	ds := tinyDataset(130, 6) // odd size: exercises the ragged final chunk
	exec, err := NewClassifierExecutor("site", mdl, ds[:16], ds[16:], LocalConfig{
		Epochs: 1, LR: 1e-2, BatchSize: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	global := nn.SnapshotWeights(mdl.Params())

	run := func(width int) float64 {
		pool := sched.New(width)
		defer pool.Close()
		defer sched.SetDefault(sched.SetDefault(pool))
		acc, err := exec.Validate(global)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}

	serial := run(1)
	for _, width := range []int{2, 4} {
		if got := run(width); got != serial {
			t.Fatalf("width %d: accuracy %v, serial %v", width, got, serial)
		}
	}
}
