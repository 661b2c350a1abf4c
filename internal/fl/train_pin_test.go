package fl

import (
	"context"
	"runtime"
	"testing"

	"clinfl/internal/data"
	"clinfl/internal/mlm"
	"clinfl/internal/model"
	"clinfl/internal/nn"
	"clinfl/internal/sched"
	"clinfl/internal/tensor"
	"clinfl/internal/token"
)

// The local training step is pinned by digest: two executors train for
// two in-process FedAvg rounds, and the final model's raw encoding must
// hash to the recorded value. The first two rows are ClassifierExecutors
// on the default LocalConfig. The BERT-mini rows were re-recorded when the
// block aᵀ×b (attention's dV and dK backward) began summing in k-quads, as
// the dense product does, so any block product equals its one-block
// products bit for bit. The MLM row re-masks its corpus in
// each of two epochs; the FedProx row trains two epochs against the
// round's anchor. Every pool width must give the row's one digest. The
// constants are checked on amd64 only: other architectures may fuse
// x*y+z into one rounding, which moves the low bits.

var trainPins = []struct {
	name   string
	spec   model.Spec
	mlm    bool // an MLMExecutor over the cohort's id sequences
	cfg    LocalConfig
	digest string
}{
	{"bert-mini", model.SpecBERTMini, false, LocalConfig{}, "097ac6f50f18a12e6f109845edcae731c6759c97bf9499b8f4019158dafbb6e8"},
	{"lstm", model.SpecLSTM, false, LocalConfig{}, "bed008a3fe9c55242d79888599185efa7693671617e9e6e334b5ca2db2a417a5"},
	{"bert-mini-mlm", model.SpecBERTMini, true, LocalConfig{Epochs: 2}, "d6a93cc5772a85fdf8e1c98b12e10812c4809546ee02290d42c413c6cbb297d7"},
	{"lstm-fedprox", model.SpecLSTM, false, LocalConfig{Epochs: 2, ProxMu: 0.1}, "bb6e3140d741896618723c709a9f593daaf526a3997ab44550c1a42a07a328f0"},
}

const (
	pinVocab   = 40
	pinMaxLen  = 12
	pinClasses = 2
)

// pinCohort builds n labeled sequences of ragged length whose label is
// carried by the token after [CLS], padded to pinMaxLen.
func pinCohort(n int, seed int64) data.Dataset {
	rng := tensor.NewRNG(seed)
	ds := make(data.Dataset, n)
	for i := range ds {
		label := rng.Intn(pinClasses)
		length := 4 + rng.Intn(pinMaxLen-3)
		ids := make([]int, pinMaxLen)
		pad := make([]bool, pinMaxLen)
		ids[0] = token.CLS
		ids[1] = token.NumSpecial + label
		for j := 2; j < length-1; j++ {
			ids[j] = token.NumSpecial + pinClasses + rng.Intn(pinVocab-token.NumSpecial-pinClasses)
		}
		ids[length-1] = token.SEP
		for j := length; j < pinMaxLen; j++ {
			ids[j] = token.PAD
			pad[j] = true
		}
		ds[i] = data.Example{IDs: ids, PadMask: pad, Label: label}
	}
	return ds
}

// trainPinDigest runs the two-site federation for spec on pool and
// returns the digest of its final weights.
func trainPinDigest(t *testing.T, spec model.Spec, pretrain bool, cfg LocalConfig, pool *sched.Pool) string {
	t.Helper()
	defer sched.SetDefault(sched.SetDefault(pool))
	var initial map[string]*tensor.Matrix
	execs := make([]Executor, 2)
	for i := range execs {
		mdl, err := model.New(spec, pinVocab, pinMaxLen, pinClasses, 7)
		if err != nil {
			t.Fatal(err)
		}
		if initial == nil {
			initial = nn.SnapshotWeights(mdl.Params())
		}
		// 40 examples at the default batch size of 32: one full and one
		// ragged step per epoch.
		name, cohort := []string{"site-a", "site-b"}[i], pinCohort(40, int64(11+i))
		if pretrain {
			seqs := make([][]int, len(cohort))
			for j, ex := range cohort {
				seqs[j] = ex.IDs
			}
			execs[i], err = NewMLMExecutor(name, mdl.(model.Pretrainer), mdl.Params(), seqs, mlm.DefaultConfig(pinVocab), cfg)
		} else {
			execs[i], err = NewClassifierExecutor(name, mdl, cohort, nil, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ctrl, err := NewController(ControllerConfig{Rounds: 2}, execs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run(context.Background(), initial)
	if err != nil {
		t.Fatal(err)
	}
	return weightsDigest(t, res.FinalWeights)
}

func TestLocalTrainingPinnedAcrossPoolWidths(t *testing.T) {
	for _, pin := range trainPins {
		t.Run(pin.name, func(t *testing.T) {
			var first string
			for _, width := range []int{1, 2, 4} {
				pool := sched.New(width)
				got := trainPinDigest(t, pin.spec, pin.mlm, pin.cfg, pool)
				pool.Close()
				if first == "" {
					first = got
				} else if got != first {
					t.Fatalf("pool width %d: digest %s, width 1 gave %s", width, got, first)
				}
			}
			if runtime.GOARCH == "amd64" && first != pin.digest {
				t.Fatalf("final weights digest %s, pinned %s", first, pin.digest)
			}
		})
	}
}
