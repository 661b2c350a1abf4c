package train

import (
	"math"
	"testing"

	"clinfl/internal/autograd"
	"clinfl/internal/nn"
	"clinfl/internal/opt"
	"clinfl/internal/tensor"
)

// linReg is a 1-parameter linear regressor y = w*x trained with squared
// loss; small enough to reason about exactly.
type linReg struct {
	w *nn.Param
}

type sample struct{ x, y float64 }

func newLinReg(w0 float64) *linReg {
	m := tensor.New(1, 1)
	m.Set(0, 0, w0)
	return &linReg{w: nn.NewParam("w", m)}
}

// loss computes sum_i (w*x_i - y_i)^2 on the tape.
func (l *linReg) loss(ctx *nn.Ctx, items []sample) (*autograd.Node, int, error) {
	wn := ctx.Node(l.w)
	var terms []*autograd.Node
	for _, s := range items {
		x := ctx.Tape.Constant(tensor.MustFromSlice(1, 1, []float64{s.x}))
		pred, err := ctx.Tape.Mul(wn, x)
		if err != nil {
			return nil, 0, err
		}
		target := ctx.Tape.Constant(tensor.MustFromSlice(1, 1, []float64{s.y}))
		diff, err := ctx.Tape.Sub(pred, target)
		if err != nil {
			return nil, 0, err
		}
		sq, err := ctx.Tape.Mul(diff, diff)
		if err != nil {
			return nil, 0, err
		}
		terms = append(terms, sq)
	}
	sum, err := ctx.Tape.SumScalars(terms...)
	if err != nil {
		return nil, 0, err
	}
	return sum, len(items), nil
}

func regData(n int, trueW float64) []sample {
	rng := tensor.NewRNG(1)
	out := make([]sample, n)
	for i := range out {
		x := rng.Float64()*4 - 2
		out[i] = sample{x: x, y: trueW * x}
	}
	return out
}

func TestStepConvergesToTrueWeight(t *testing.T) {
	m := newLinReg(0)
	items := regData(64, 3)
	o := opt.NewSGD(0.05, 0)
	tr := NewTrainer([]*nn.Param{m.w}, m.loss, o, Config{BatchSize: 64})
	var loss float64
	var err error
	for i := 0; i < 60; i++ {
		loss, err = tr.Step(items, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := m.w.W.At(0, 0); math.Abs(got-3) > 0.05 {
		t.Fatalf("w = %v, want ~3 (final loss %v)", got, loss)
	}
}

func TestStepEmptyBatch(t *testing.T) {
	m := newLinReg(0)
	o := opt.NewSGD(0.1, 0)
	if _, err := NewTrainer([]*nn.Param{m.w}, m.loss, o, Config{}).Step(nil, 0); err == nil {
		t.Fatal("want error for empty batch")
	}
}

func TestEpochShufflesDeterministically(t *testing.T) {
	items := regData(32, 1.5)
	run := func() float64 {
		m := newLinReg(0)
		o := opt.NewSGD(0.05, 0)
		loss, err := NewTrainer([]*nn.Param{m.w}, m.loss, o, Config{BatchSize: 8}).Epoch(items, 7)
		if err != nil {
			t.Fatal(err)
		}
		_ = loss
		return m.w.W.At(0, 0)
	}
	if run() != run() {
		t.Fatal("same-seed epochs diverged")
	}
}

func TestEpochEmpty(t *testing.T) {
	m := newLinReg(0)
	o := opt.NewSGD(0.1, 0)
	if _, err := NewTrainer([]*nn.Param{m.w}, m.loss, o, Config{}).Epoch(nil, 0); err == nil {
		t.Fatal("want error for empty epoch")
	}
}

func TestEvalLossMatchesKnownValue(t *testing.T) {
	m := newLinReg(0) // predicts 0 everywhere
	items := []sample{{x: 1, y: 2}, {x: 1, y: 4}}
	// Squared errors: 4 and 16, mean = 10.
	got, err := EvalLoss(items, m.loss, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-12 {
		t.Fatalf("eval loss %v, want 10", got)
	}
}

func TestEvalLossDoesNotTrain(t *testing.T) {
	m := newLinReg(1)
	items := regData(16, 3)
	if _, err := EvalLoss(items, m.loss, 8, 1); err != nil {
		t.Fatal(err)
	}
	if m.w.W.At(0, 0) != 1 {
		t.Fatal("EvalLoss modified parameters")
	}
	if m.w.Grad.Norm() != 0 {
		t.Fatal("EvalLoss left gradients behind")
	}
}

func TestProxTermAnchorsToReference(t *testing.T) {
	// Data pulls w toward 3; with a strong proximal anchor at w_ref = 0 the
	// trained weight must land much closer to 0 than the unanchored run.
	items := regData(64, 3)
	run := func(mu float64) float64 {
		m := newLinReg(0)
		o := opt.NewSGD(0.05, 0)
		tr := NewTrainer([]*nn.Param{m.w}, m.loss, o, Config{BatchSize: 64, ProxMu: mu})
		if mu > 0 {
			ref := tensor.New(1, 1) // anchor at 0
			if err := tr.SetProxRef(map[string]*tensor.Matrix{"w": ref}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 60; i++ {
			if _, err := tr.Step(items, 1); err != nil {
				t.Fatal(err)
			}
		}
		return m.w.W.At(0, 0)
	}
	free, anchored := run(0), run(20)
	if math.Abs(free-3) > 0.05 {
		t.Fatalf("unanchored run did not converge: w = %v", free)
	}
	if math.Abs(anchored) > 0.6 {
		t.Fatalf("mu=20 anchor should pin w near 0, got %v", anchored)
	}
	if math.Abs(anchored) >= math.Abs(free-0)/2 {
		t.Fatalf("proximal term too weak: |w_prox| = %v vs free %v", anchored, free)
	}
}

func TestProxRefValidation(t *testing.T) {
	m := newLinReg(0)
	tr := NewTrainer([]*nn.Param{m.w}, m.loss, opt.NewSGD(0.1, 0), Config{ProxMu: 1})
	if err := tr.SetProxRef(map[string]*tensor.Matrix{}); err == nil {
		t.Fatal("want error for missing param")
	}
	if err := tr.SetProxRef(map[string]*tensor.Matrix{"w": tensor.New(2, 2)}); err == nil {
		t.Fatal("want error for shape mismatch")
	}
}

func TestClippingBoundsUpdate(t *testing.T) {
	// A huge-gradient step with ClipNorm must move the weight by at most
	// lr * clip.
	m := newLinReg(0)
	items := []sample{{x: 100, y: -1000}}
	o := opt.NewSGD(0.1, 0)
	if _, err := NewTrainer([]*nn.Param{m.w}, m.loss, o, Config{BatchSize: 1, ClipNorm: 1}).Step(items, 0); err != nil {
		t.Fatal(err)
	}
	if got := math.Abs(m.w.W.At(0, 0)); got > 0.1+1e-12 {
		t.Fatalf("clipped update moved weight by %v > lr*clip", got)
	}
}
