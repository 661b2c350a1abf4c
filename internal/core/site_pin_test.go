package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"clinfl/internal/metrics"
)

// historyDigest hashes a federated fine-tune's outcome bit for bit: every
// round's sample-weighted local training loss and validation accuracy,
// then the selected round and its score. A round's training loss is a
// function of the global model the previous round aggregated, so the
// digest moves with any change to the sites' models, data, seeds or local
// training.
func historyDigest(rep *Report) string {
	h := sha256.New()
	put := func(f float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	for _, r := range rep.History.Rounds {
		putInt(h, r.Round)
		put(r.MeanTrainLoss)
		put(r.ValScore)
	}
	putInt(h, rep.History.BestRound)
	put(rep.Accuracy)
	return hex.EncodeToString(h.Sum(nil))
}

// curveString prints a curve's values exactly (shortest round-trip form).
func curveString(c *metrics.Curve) string {
	parts := make([]string, len(c.Points))
	for i, p := range c.Points {
		parts[i] = fmt.Sprintf("%d:%s", p.Step, strconv.FormatFloat(p.Value, 'g', -1, 64))
	}
	return strings.Join(parts, " ")
}

// TestSiteRecipePinned pins what the pipeline's sites train: the model
// each site builds, its local training config and seed, and the shard it
// gets. The values were computed before the site recipe had one owner in
// this package; the BERT-mini curves were re-recorded when the block aᵀ×b
// began summing in k-quads, as the dense product does. Every row must hold
// at any GOMAXPROCS.
func TestSiteRecipePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	run := func(t *testing.T, cfg Config) *Report {
		t.Helper()
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Eight LSTM sites on the paper's imbalanced shards.
	t.Run("lstm-federated", func(t *testing.T) {
		const want = "ad4fc0b888f70f30c20ea1c780f28e09dd61a1d8d4bd17778eb86c16968be2ae"
		rep := run(t, tinyConfig(TaskFinetune, ModeFederated, "lstm"))
		if got := historyDigest(rep); got != want {
			t.Errorf("history digest %s, want %s", got, want)
		}
	})

	// The first three imbalanced shards, each trained alone.
	t.Run("lstm-standalone", func(t *testing.T) {
		const want = "site-1/19:0.8125 site-2/14:0.8125 site-3/11:0.21875 mean:0.6640625"
		cfg := tinyConfig(TaskFinetune, ModeStandalone, "lstm")
		cfg.StandaloneLimit = 3
		rep := run(t, cfg)
		var b strings.Builder
		for _, s := range rep.PerSite {
			fmt.Fprintf(&b, "%s/%d:%s ", s.Site, s.Samples, strconv.FormatFloat(s.Accuracy, 'g', -1, 64))
		}
		fmt.Fprintf(&b, "mean:%s", strconv.FormatFloat(rep.Accuracy, 'g', -1, 64))
		if got := b.String(); got != want {
			t.Errorf("per-site accuracies\n got %s\nwant %s", got, want)
		}
	})

	// Four BERT-mini MLM sites on balanced shards.
	t.Run("bert-mini-pretrain", func(t *testing.T) {
		const want = "0:5.272220012758294 1:5.172482308957596 2:5.044585290165564"
		cfg := tinyConfig(TaskPretrain, ModeFederated, "bert-mini")
		cfg.Partition = PartitionBalanced
		cfg.Clients = 4
		cfg.TrainSize = 48
		cfg.ValidSize = 24
		rep := run(t, cfg)
		if got := curveString(rep.EvalCurve); got != want {
			t.Errorf("eval-loss curve\n got %s\nwant %s", got, want)
		}
	})

	// The small-dataset scheme: only the first of eight shards trains.
	t.Run("bert-mini-standalone", func(t *testing.T) {
		const want = "0:5.272220012758294 1:5.163172856658688 2:4.995148243312767"
		cfg := tinyConfig(TaskPretrain, ModeStandalone, "bert-mini")
		cfg.TrainSize = 48
		cfg.ValidSize = 24
		rep := run(t, cfg)
		if got := curveString(rep.EvalCurve); got != want {
			t.Errorf("eval-loss curve\n got %s\nwant %s", got, want)
		}
	})
}
