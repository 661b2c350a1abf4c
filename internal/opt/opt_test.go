package opt

import (
	"errors"
	"math"
	"testing"

	"clinfl/internal/nn"
	"clinfl/internal/tensor"
)

// quadParam builds a parameter initialized at x0 whose loss is 0.5*||x||².
func quadParam(x0 float64) *nn.Param {
	w := tensor.New(1, 1)
	w.Set(0, 0, x0)
	return nn.NewParam("x", w)
}

// setQuadGrad writes the gradient of 0.5*x² (= x) into p.Grad.
func setQuadGrad(p *nn.Param) {
	p.Grad.Set(0, 0, p.W.At(0, 0))
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	p := quadParam(10)
	s := NewSGD(0.1, 0)
	for i := 0; i < 100; i++ {
		setQuadGrad(p)
		if err := s.Step([]*nn.Param{p}); err != nil {
			t.Fatal(err)
		}
	}
	if x := math.Abs(p.W.At(0, 0)); x > 1e-3 {
		t.Fatalf("SGD did not converge: |x| = %v", x)
	}
}

func TestSGDMomentumFasterThanPlain(t *testing.T) {
	run := func(momentum float64) float64 {
		p := quadParam(10)
		s := NewSGD(0.05, momentum)
		for i := 0; i < 30; i++ {
			setQuadGrad(p)
			if err := s.Step([]*nn.Param{p}); err != nil {
				panic(err)
			}
		}
		return math.Abs(p.W.At(0, 0))
	}
	if run(0.9) >= run(0) {
		t.Fatal("momentum should accelerate convergence on a smooth quadratic")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := quadParam(10)
	a := NewAdam(0.5)
	for i := 0; i < 200; i++ {
		setQuadGrad(p)
		if err := a.Step([]*nn.Param{p}); err != nil {
			t.Fatal(err)
		}
	}
	if x := math.Abs(p.W.At(0, 0)); x > 1e-2 {
		t.Fatalf("Adam did not converge: |x| = %v", x)
	}
}

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction, the very first Adam update has magnitude ≈ lr
	// regardless of gradient scale.
	for _, scale := range []float64{1e-4, 1, 1e4} {
		p := quadParam(0)
		p.Grad.Set(0, 0, scale)
		a := NewAdam(0.1)
		if err := a.Step([]*nn.Param{p}); err != nil {
			t.Fatal(err)
		}
		// eps in the denominator shaves a sliver off for tiny gradients.
		if got := math.Abs(p.W.At(0, 0)); math.Abs(got-0.1) > 1e-4 {
			t.Fatalf("first step %v for grad scale %v, want ~lr", got, scale)
		}
	}
}

func TestOptimizersRejectEmptyParams(t *testing.T) {
	if err := NewSGD(0.1, 0).Step(nil); !errors.Is(err, ErrNoParams) {
		t.Fatalf("sgd: want ErrNoParams, got %v", err)
	}
	if err := NewAdam(0.1).Step(nil); !errors.Is(err, ErrNoParams) {
		t.Fatalf("adam: want ErrNoParams, got %v", err)
	}
}

func TestZeroGrads(t *testing.T) {
	p := quadParam(1)
	p.Grad.Set(0, 0, 5)
	ZeroGrads([]*nn.Param{p})
	if p.Grad.At(0, 0) != 0 {
		t.Fatal("grad not zeroed")
	}
}

func TestClipGradNorm(t *testing.T) {
	p1 := quadParam(0)
	p2 := quadParam(0)
	p1.Grad.Set(0, 0, 3)
	p2.Grad.Set(0, 0, 4)
	params := []*nn.Param{p1, p2}
	norm := ClipGradNorm(params, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v, want 5", norm)
	}
	var clipped float64
	clipped = math.Hypot(p1.Grad.At(0, 0), p2.Grad.At(0, 0))
	if math.Abs(clipped-1) > 1e-12 {
		t.Fatalf("post-clip norm %v, want 1", clipped)
	}
}

func TestClipGradNormNoOpCases(t *testing.T) {
	p := quadParam(0)
	p.Grad.Set(0, 0, 0.5)
	if norm := ClipGradNorm([]*nn.Param{p}, 0); norm != 0.5 {
		t.Fatalf("disabled clip changed norm: %v", norm)
	}
	if p.Grad.At(0, 0) != 0.5 {
		t.Fatal("disabled clip modified gradient")
	}
	ClipGradNorm([]*nn.Param{p}, 10)
	if p.Grad.At(0, 0) != 0.5 {
		t.Fatal("under-limit clip modified gradient")
	}
}

func TestOptimizerNames(t *testing.T) {
	if NewSGD(1, 0).Name() != "sgd" || NewAdam(1).Name() != "adam" {
		t.Fatal("optimizer names wrong")
	}
}

func TestAdamShapeMismatch(t *testing.T) {
	p := quadParam(0)
	p.Grad = tensor.New(2, 2)
	if err := NewAdam(0.1).Step([]*nn.Param{p}); err == nil {
		t.Fatal("want shape error")
	}
}
