// Package opt implements the gradient-descent optimizers used by the
// paper's training recipes (Adam with lr 1e-2 per Table I, plus SGD with
// momentum as a baseline) and gradient-clipping utilities.
package opt

import (
	"errors"
	"fmt"
	"math"

	"clinfl/internal/nn"
	"clinfl/internal/tensor"
)

// ErrNoParams is returned when an optimizer is stepped with no parameters.
var ErrNoParams = errors.New("opt: no parameters")

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update using each parameter's Grad, then leaves the
	// gradients untouched (callers zero them explicitly).
	Step(params []*nn.Param) error
	// Name identifies the optimizer in logs and experiment records.
	Name() string
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64

	velocity map[*nn.Param]*tensor.Matrix
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*nn.Param]*tensor.Matrix)}
}

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// Step implements Optimizer.
func (s *SGD) Step(params []*nn.Param) error {
	if len(params) == 0 {
		return ErrNoParams
	}
	for _, p := range params {
		if s.Momentum == 0 {
			if err := p.W.AddScaledInPlace(-s.LR, p.Grad); err != nil {
				return fmt.Errorf("opt: sgd %q: %w", p.Name, err)
			}
			continue
		}
		v, ok := s.velocity[p]
		if !ok {
			v = tensor.New(p.W.Rows(), p.W.Cols())
			s.velocity[p] = v
		}
		v.ScaleInPlace(s.Momentum)
		if err := v.AddInPlace(p.Grad); err != nil {
			return fmt.Errorf("opt: sgd velocity %q: %w", p.Name, err)
		}
		if err := p.W.AddScaledInPlace(-s.LR, v); err != nil {
			return fmt.Errorf("opt: sgd %q: %w", p.Name, err)
		}
	}
	return nil
}

// Adam is the Adam optimizer (Kingma & Ba).
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	step int
	m, v map[*nn.Param]*tensor.Matrix
}

// NewAdam returns Adam with the conventional betas (0.9, 0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		m:     make(map[*nn.Param]*tensor.Matrix),
		v:     make(map[*nn.Param]*tensor.Matrix),
	}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// Step implements Optimizer. The fused loop reuses the moment buffers the
// optimizer already owns; all per-step constants (decay complements, bias-
// correction reciprocals) are hoisted out of the per-element loop.
func (a *Adam) Step(params []*nn.Param) error {
	if len(params) == 0 {
		return ErrNoParams
	}
	a.step++
	b1, b2 := a.Beta1, a.Beta2
	omb1, omb2 := 1-b1, 1-b2
	invBc1 := 1 / (1 - math.Pow(b1, float64(a.step)))
	invBc2 := 1 / (1 - math.Pow(b2, float64(a.step)))
	lr, eps := a.LR, a.Eps
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.W.Rows(), p.W.Cols())
			a.m[p] = m
			a.v[p] = tensor.New(p.W.Rows(), p.W.Cols())
		}
		v := a.v[p]
		if !p.Grad.SameShape(p.W) {
			return fmt.Errorf("opt: adam %q: %w", p.Name, tensor.ErrShape)
		}
		wd, md, vd, gd := p.W.Data(), m.Data(), v.Data(), p.Grad.Data()
		for i := range wd {
			g := gd[i]
			md[i] = b1*md[i] + omb1*g
			vd[i] = b2*vd[i] + omb2*g*g
			wd[i] -= lr * md[i] * invBc1 / (math.Sqrt(vd[i]*invBc2) + eps)
		}
	}
	return nil
}

// ZeroGrads clears the gradient accumulators of all params.
func ZeroGrads(params []*nn.Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm does not
// exceed maxNorm, returning the pre-clip norm. maxNorm <= 0 disables
// clipping.
func ClipGradNorm(params []*nn.Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		n := p.Grad.Norm()
		sq += n * n
	}
	norm := math.Sqrt(sq)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range params {
		p.Grad.ScaleInPlace(scale)
	}
	return norm
}
