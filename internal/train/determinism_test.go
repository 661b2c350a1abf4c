package train

import (
	"fmt"
	"runtime"
	"testing"

	"clinfl/internal/data"
	"clinfl/internal/model"
	"clinfl/internal/nn"
	"clinfl/internal/opt"
	"clinfl/internal/sched"
	"clinfl/internal/tensor"
)

// Training arithmetic must be bit-identical no matter how wide the pool
// that ran it. A step is one forward pass and one reverse scan on one
// tape, and kernels chunk independently of the pool width, so pool widths
// 1, 2 and GOMAXPROCS must all produce the same bits through real
// transformer steps and Adam updates.

// detCohort builds a tiny deterministic classification set (no ehr/token
// machinery; ids straight from an RNG).
func detCohort(n, vocab, seqLen int) data.Dataset {
	rng := tensor.NewRNG(99)
	ds := make(data.Dataset, n)
	for i := range ds {
		ids := make([]int, seqLen)
		mask := make([]bool, seqLen)
		for j := range ids {
			ids[j] = int(rng.Float64() * float64(vocab))
			if ids[j] >= vocab {
				ids[j] = vocab - 1
			}
		}
		ds[i] = data.Example{IDs: ids, PadMask: mask, Label: i % 2}
	}
	return ds
}

// runDetSteps trains a fresh BERT-mini for `steps` steps under a pinned
// pool width, returning the final weights and the per-step losses.
func runDetSteps(t *testing.T, width, steps int, ds data.Dataset) (map[string]*tensor.Matrix, []float64) {
	t.Helper()
	pool := sched.New(width)
	defer pool.Close()
	defer sched.SetDefault(sched.SetDefault(pool))

	const vocab = 40
	m, err := model.New(model.SpecBERTMini.Scaled(2), vocab, len(ds[0].IDs), 2, 1234)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(m.Params(), m.LossBatch, opt.NewAdam(1e-3), Config{
		BatchSize: len(ds),
	})
	losses := make([]float64, steps)
	for s := 0; s < steps; s++ {
		loss, err := tr.Step([]data.Example(ds), int64(100+s))
		if err != nil {
			t.Fatal(err)
		}
		losses[s] = loss
	}
	return nn.SnapshotWeights(m.Params()), losses
}

// TestStepBitIdenticalAcrossWorkersAndPools: gradients and Adam updates
// must be bit-identical at pool widths 1, 2 and GOMAXPROCS (forced to at
// least 4 so the kernels really fan out on small CI boxes).
func TestStepBitIdenticalAcrossWorkersAndPools(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config transformer training in -short mode")
	}
	ds := detCohort(8, 40, 12)
	gmp := runtime.GOMAXPROCS(0)
	if gmp < 4 {
		gmp = 4
	}
	refW, refLoss := runDetSteps(t, 1, 3, ds)
	for _, width := range []int{2, gmp} {
		w, losses := runDetSteps(t, width, 3, ds)
		for s := range losses {
			if losses[s] != refLoss[s] {
				t.Fatalf("width=%d: step %d loss %x, serial %x", width, s, losses[s], refLoss[s])
			}
		}
		if err := compareWeights(refW, w); err != nil {
			t.Fatalf("width=%d: %v", width, err)
		}
	}
}

func compareWeights(a, b map[string]*tensor.Matrix) error {
	if len(a) != len(b) {
		return fmt.Errorf("weight map size %d vs %d", len(b), len(a))
	}
	for name, am := range a {
		bm, ok := b[name]
		if !ok {
			return fmt.Errorf("missing param %q", name)
		}
		ad, bd := am.Data(), bm.Data()
		for i := range ad {
			if ad[i] != bd[i] {
				return fmt.Errorf("param %q[%d] = %x, serial %x", name, i, bd[i], ad[i])
			}
		}
	}
	return nil
}
