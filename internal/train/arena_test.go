package train

import (
	"testing"

	"clinfl/internal/autograd"
	"clinfl/internal/nn"
	"clinfl/internal/opt"
	"clinfl/internal/tensor"
)

// Arena-reuse coverage: after one warmup step, a Trainer step must perform
// zero allocations (every tape node, activation and gradient buffer is
// recycled) and produce exactly the arithmetic a fresh-tape run would.

// allocProbe is a tiny model whose loss function allocates nothing per
// call: all inputs are prebuilt constant matrices, and the loss is composed
// purely of tape ops. sum_i (w*x_i - y_i)^2, like the linReg model, but
// with reusable constants.
type allocProbe struct {
	w *nn.Param
}

type allocSample struct{ x, y *tensor.Matrix }

func newAllocProbe(w0 float64) *allocProbe {
	m := tensor.New(1, 1)
	m.Set(0, 0, w0)
	return &allocProbe{w: nn.NewParam("w", m)}
}

func (l *allocProbe) loss(ctx *nn.Ctx, items []allocSample) (*autograd.Node, int, error) {
	wn := ctx.Node(l.w)
	var sum *autograd.Node
	for _, s := range items {
		pred, err := ctx.Tape.Mul(wn, ctx.Tape.Constant(s.x))
		if err != nil {
			return nil, 0, err
		}
		diff, err := ctx.Tape.Sub(pred, ctx.Tape.Constant(s.y))
		if err != nil {
			return nil, 0, err
		}
		sq, err := ctx.Tape.Mul(diff, diff)
		if err != nil {
			return nil, 0, err
		}
		if sum == nil {
			sum = sq
			continue
		}
		if sum, err = ctx.Tape.Add(sum, sq); err != nil {
			return nil, 0, err
		}
	}
	return sum, len(items), nil
}

func allocData(n int, trueW float64) []allocSample {
	rng := tensor.NewRNG(5)
	out := make([]allocSample, n)
	for i := range out {
		x := rng.Float64()*4 - 2
		out[i] = allocSample{
			x: tensor.MustFromSlice(1, 1, []float64{x}),
			y: tensor.MustFromSlice(1, 1, []float64{trueW * x}),
		}
	}
	return out
}

// TestTrainerStepZeroAllocSteadyState pins the tentpole invariant: step 2
// (and beyond) of a Trainer allocates nothing — no tensors, no tape nodes,
// no per-step state. Every measured step cycles the one tape through a
// Reset, so the ten runs exercise Reset-based reuse across steps.
func TestTrainerStepZeroAllocSteadyState(t *testing.T) {
	m := newAllocProbe(0.25)
	items := allocData(6, 3)
	tr := NewTrainer([]*nn.Param{m.w}, m.loss, opt.NewSGD(0.01, 0), Config{
		BatchSize: 6,
	})
	// Warmup step grows arena slabs, node pools and gradient buffers.
	if _, err := tr.Step(items, 1); err != nil {
		t.Fatal(err)
	}
	var stepErr error
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := tr.Step(items, 1); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Fatalf("steady-state Trainer.Step allocated %v times, want 0", allocs)
	}
}

// TestTrainerArenaFootprintStable asserts the trainer's arena stops growing
// after the first step: later steps cycle the tape and recycle slabs
// instead of extending them.
func TestTrainerArenaFootprintStable(t *testing.T) {
	m := newAllocProbe(0.5)
	items := allocData(8, 2)
	tr := NewTrainer([]*nn.Param{m.w}, m.loss, opt.NewSGD(0.01, 0), Config{
		BatchSize: 8,
	})
	if _, err := tr.Step(items, 1); err != nil {
		t.Fatal(err)
	}
	arena := tr.ctx.Tape.Arena()
	if arena == nil {
		t.Fatal("trainer context has no arena")
	}
	foot := arena.Footprint()
	if foot == 0 {
		t.Fatal("arena footprint zero after a step")
	}
	for i := 0; i < 5; i++ {
		if _, err := tr.Step(items, int64(2+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := arena.Footprint(); got != foot {
		t.Fatalf("arena footprint grew %d -> %d after warmup step", foot, got)
	}
}

// TestTrainerReuseBitIdenticalToFreshTapes runs the same two-step training
// schedule through one reused Trainer and through a fresh Trainer per step
// (a fresh tape and arena every step): per-step losses and final
// weights must be bit-identical, proving tape/arena recycling changes no
// arithmetic.
func TestTrainerReuseBitIdenticalToFreshTapes(t *testing.T) {
	items := allocData(6, 3)
	const steps = 4

	reusedModel := newAllocProbe(0.25)
	reused := NewTrainer([]*nn.Param{reusedModel.w}, reusedModel.loss, opt.NewSGD(0.05, 0), Config{
		BatchSize: 6,
	})
	freshModel := newAllocProbe(0.25)

	for i := 0; i < steps; i++ {
		seed := int64(10 + i)
		reusedLoss, err := reused.Step(items, seed)
		if err != nil {
			t.Fatal(err)
		}
		// A brand-new Trainer per step: nothing carries over but the params.
		fresh := NewTrainer([]*nn.Param{freshModel.w}, freshModel.loss, opt.NewSGD(0.05, 0), Config{
			BatchSize: 6,
		})
		freshLoss, err := fresh.Step(items, seed)
		if err != nil {
			t.Fatal(err)
		}
		if reusedLoss != freshLoss {
			t.Fatalf("step %d: reused-trainer loss %v != fresh-trainer loss %v", i, reusedLoss, freshLoss)
		}
	}
	if got, want := reusedModel.w.W.At(0, 0), freshModel.w.W.At(0, 0); got != want {
		t.Fatalf("final weights diverge: reused %v vs fresh %v", got, want)
	}
}
