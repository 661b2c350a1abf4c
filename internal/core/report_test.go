package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"clinfl/internal/data"
	"clinfl/internal/ehr"
	"clinfl/internal/fl"
	"clinfl/internal/metrics"
)

// These tests exercise pipeline plumbing that the training integration
// tests don't reach: data preparation invariants, partition dispatch and
// report bookkeeping — all cheap enough to run in -short mode.

func TestPrepareFinetuneSplitsAndEncodes(t *testing.T) {
	cfg := tinyConfig(TaskFinetune, ModeFederated, "lstm")
	train, valid, vocab, err := PrepareFinetune(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != cfg.TrainSize || len(valid) != cfg.ValidSize {
		t.Fatalf("split %d/%d, want %d/%d", len(train), len(valid), cfg.TrainSize, cfg.ValidSize)
	}
	if vocab.Size() <= 0 {
		t.Fatal("empty vocab")
	}
	for i, ex := range train {
		if len(ex.IDs) != cfg.MaxLen || len(ex.PadMask) != cfg.MaxLen {
			t.Fatalf("example %d not padded to MaxLen", i)
		}
		if ex.Label != 0 && ex.Label != 1 {
			t.Fatalf("example %d label %d", i, ex.Label)
		}
	}
	// Class balance should roughly match the cohort's.
	rate := data.Dataset(train).PositiveRate()
	if rate < 0.1 || rate > 0.4 {
		t.Fatalf("train positive rate %.3f implausible", rate)
	}
}

func TestPrepareFinetuneRejectsOversizedSplit(t *testing.T) {
	cfg := tinyConfig(TaskFinetune, ModeCentralized, "lstm")
	cfg.TrainSize = 10000
	if _, _, _, err := PrepareFinetune(cfg); err == nil {
		t.Fatal("want error for train+valid exceeding cohort")
	}
}

func TestPreparePretrainEncodes(t *testing.T) {
	cfg := tinyConfig(TaskPretrain, ModeCentralized, "bert-mini")
	cfg.TrainSize, cfg.ValidSize = 40, 20
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, valid, vocab, err := p.preparePretrain()
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != 40 || len(valid) != 20 {
		t.Fatalf("split %d/%d", len(train), len(valid))
	}
	if vocab.Size() <= 0 {
		t.Fatal("empty vocab")
	}
	for i, ids := range train {
		if len(ids) != cfg.MaxLen {
			t.Fatalf("sequence %d length %d, want %d", i, len(ids), cfg.MaxLen)
		}
	}
}

func TestPartitionDispatch(t *testing.T) {
	cfg := tinyConfig(TaskFinetune, ModeFederated, "lstm")
	ds := make(data.Dataset, 100)
	imb, err := Shards(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(imb) != 8 || len(imb[0]) <= len(imb[7]) {
		t.Fatal("imbalanced partition shape wrong")
	}

	cfg.Partition = PartitionBalanced
	bal, err := Shards(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(bal) != 8 {
		t.Fatalf("balanced shards %d", len(bal))
	}
	for _, s := range bal {
		if len(s) != 12 && len(s) != 13 {
			t.Fatalf("balanced shard size %d", len(s))
		}
	}
}

func TestPartitionIDsPreservesSequences(t *testing.T) {
	cfg := tinyConfig(TaskPretrain, ModeFederated, "bert-mini")
	cfg.Partition = PartitionBalanced
	seqs := make([][]int, 64)
	for i := range seqs {
		seqs[i] = []int{i, i + 1}
	}
	shards, err := partitionIDs(cfg, seqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != cfg.Clients {
		t.Fatalf("shards %d", len(shards))
	}
	seen := 0
	for _, shard := range shards {
		for _, ids := range shard {
			if ids[1] != ids[0]+1 {
				t.Fatal("sequence corrupted by partition")
			}
			seen++
		}
	}
	if seen != 64 {
		t.Fatalf("partition covers %d of 64", seen)
	}
}

func TestLocalConfigTimingHook(t *testing.T) {
	cfg := tinyConfig(TaskFinetune, ModeCentralized, "lstm")
	timing := metrics.NewTiming("test")
	lc := siteConfig(cfg, 3, epochTimer(timing), 0.5)
	if lc.EpochHook == nil {
		t.Fatal("no epoch hook wired")
	}
	lc.EpochHook("site", 0, 0, 5*time.Millisecond)
	if timing.Count() != 1 {
		t.Fatal("hook did not record")
	}
	if siteConfig(cfg, 0, nil, 0).EpochHook != nil {
		t.Fatal("nil hook should not wire one")
	}
	// Site 3 trains on cfg's local settings with seed Seed + 3·37.
	lc.EpochHook = nil
	want := fl.LocalConfig{
		Epochs: cfg.LocalEpochs, LR: cfg.LR, BatchSize: cfg.BatchSize,
		ClipNorm: cfg.ClipNorm, ProxMu: 0.5, Seed: cfg.Seed + 111,
	}
	if !reflect.DeepEqual(lc, want) {
		t.Fatalf("site config %+v, want %+v", lc, want)
	}
}

func TestDefaultUsesPaperCohort(t *testing.T) {
	cfg := Default(TaskFinetune, ModeFederated, "lstm")
	if cfg.EHR.Patients != 8638 {
		t.Fatalf("cohort %d, want the paper's 8,638", cfg.EHR.Patients)
	}
	want := 1824.0 / 8638.0
	if diff := cfg.EHR.TargetPositiveRate - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("positive rate %v, want %v", cfg.EHR.TargetPositiveRate, want)
	}
	if _, err := ehr.GenerateCorpus(ehr.Config{}); err == nil {
		t.Fatal("zero ehr config should not validate")
	}
}

func TestRunUnknownTaskRejected(t *testing.T) {
	cfg := tinyConfig(TaskFinetune, ModeFederated, "lstm")
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.cfg.Task = "bogus" // bypass NewPipeline validation deliberately
	if _, err := p.Run(context.Background()); err == nil {
		t.Fatal("want unknown-task error")
	}
}
