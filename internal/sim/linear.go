package sim

import (
	"fmt"

	"clinfl/internal/tensor"
)

// The simulator trains a synthetic federated learning problem: each client
// holds a shard of a noisy linear regression y = x·w* + b*, with
// per-client heterogeneity (a client-specific tilt of the ground truth, the
// non-IID-ness). Linear least squares keeps the per-round compute trivial —
// scenario cost is dominated by the simulated system dynamics, not the
// model — while still giving FedAvg/FedAsync a real convergence signal to
// verify.
const (
	// LinearDim is the feature dimension.
	LinearDim = 8
	// Shard sizes are drawn uniformly from [linearSamplesMin,
	// linearSamplesMax], so aggregation weights vary.
	linearSamplesMin, linearSamplesMax = 20, 60
	// linearNoise is the label-noise amplitude: labels get a uniform
	// [-linearNoise, linearNoise) perturbation.
	linearNoise = 0.05
	// linearHetero tilts each client's ground truth by a uniform
	// [-linearHetero, linearHetero) per-coordinate offset: client optima
	// disagree, so a client that trains alone drifts from the global
	// optimum.
	linearHetero = 0.2
	// linearLR is the local gradient-descent learning rate and
	// linearSteps the number of local full-batch GD steps per round.
	linearLR    = 0.05
	linearSteps = 4
)

// LinearShard is one client's local dataset.
type LinearShard struct {
	x [][]float64
	y []float64
}

// Samples is the shard size (the client's aggregation weight).
func (s *LinearShard) Samples() int { return len(s.y) }

// Train runs the local GD steps starting from the global weights
// and returns the post-training weights plus the final training loss.
// All arithmetic is plain serial float64, so results are bit-identical
// everywhere.
func (s *LinearShard) Train(global map[string]*tensor.Matrix) (map[string]*tensor.Matrix, float64, error) {
	w, b, err := unpackLinear(global)
	if err != nil {
		return nil, 0, err
	}
	m := float64(len(s.y))
	gw := make([]float64, LinearDim)
	var loss float64
	for step := 0; step < linearSteps; step++ {
		for i := range gw {
			gw[i] = 0
		}
		gb := 0.0
		loss = 0
		for i, xi := range s.x {
			pred := b
			for j, xij := range xi {
				pred += xij * w[j]
			}
			r := pred - s.y[i]
			loss += r * r
			for j, xij := range xi {
				gw[j] += r * xij
			}
			gb += r
		}
		loss /= m
		for j := range w {
			w[j] -= linearLR * 2 * gw[j] / m
		}
		b -= linearLR * 2 * gb / m
	}
	out := InitialLinearWeights(LinearDim)
	copy(out["w"].Data(), w)
	out["b"].Data()[0] = b
	return out, loss, nil
}

// Population is a full client population over one ground truth, plus a
// noise-free holdout for scoring the global model.
type Population struct {
	Shards []*LinearShard

	truth []float64 // dim weights + bias last
	holdX [][]float64
	holdY []float64
}

// NewPopulation generates n client shards and a holdout set from seed.
// Generation order is fixed (truth, holdout, then shards in client-index
// order), so a seed pins every byte of every dataset.
func NewPopulation(seed int64, n int) *Population {
	rng := tensor.NewRNG(seed)
	truth := make([]float64, LinearDim+1)
	for i := range truth {
		truth[i] = rng.Float64()*2 - 1
	}
	p := &Population{truth: truth}
	const holdout = 256
	p.holdX, p.holdY = genExamples(rng, truth, nil, holdout, 0)
	for c := 0; c < n; c++ {
		m := linearSamplesMin + rng.Intn(linearSamplesMax-linearSamplesMin+1)
		tilt := make([]float64, LinearDim)
		for i := range tilt {
			tilt[i] = (rng.Float64()*2 - 1) * linearHetero
		}
		x, y := genExamples(rng, truth, tilt, m, linearNoise)
		p.Shards = append(p.Shards, &LinearShard{x: x, y: y})
	}
	return p
}

// genExamples draws m examples from the (optionally tilted) ground truth.
func genExamples(rng *tensor.RNG, truth, tilt []float64, m int, noise float64) ([][]float64, []float64) {
	x := make([][]float64, m)
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		xi := make([]float64, LinearDim)
		yi := truth[LinearDim] // bias
		for j := range xi {
			xi[j] = rng.Float64()*2 - 1
			wj := truth[j]
			if tilt != nil {
				wj += tilt[j]
			}
			yi += xi[j] * wj
		}
		if noise > 0 {
			yi += (rng.Float64()*2 - 1) * noise
		}
		x[i] = xi
		y[i] = yi
	}
	return x, y
}

// Eval returns the global model's mean squared error on the noise-free
// holdout (lower is better).
func (p *Population) Eval(weights map[string]*tensor.Matrix) (float64, error) {
	w, b, err := unpackLinear(weights)
	if err != nil {
		return 0, err
	}
	var mse float64
	for i, xi := range p.holdX {
		pred := b
		for j, xij := range xi {
			pred += xij * w[j]
		}
		r := pred - p.holdY[i]
		mse += r * r
	}
	return mse / float64(len(p.holdY)), nil
}

// InitialLinearWeights is the zero starting model of the linear task over
// dim features (LinearDim in every scenario).
func InitialLinearWeights(dim int) map[string]*tensor.Matrix {
	return map[string]*tensor.Matrix{
		"w": tensor.New(1, dim),
		"b": tensor.New(1, 1),
	}
}

// unpackLinear extracts (w, b) from a weight map, copying w so training
// never mutates the caller's global model.
func unpackLinear(weights map[string]*tensor.Matrix) ([]float64, float64, error) {
	const dim = LinearDim
	wm, ok := weights["w"]
	if !ok || wm.Rows()*wm.Cols() != dim {
		return nil, 0, fmt.Errorf("sim: weight map missing 1x%d param \"w\"", dim)
	}
	bm, ok := weights["b"]
	if !ok || bm.Rows()*bm.Cols() != 1 {
		return nil, 0, fmt.Errorf("sim: weight map missing 1x1 param \"b\"")
	}
	w := make([]float64, dim)
	copy(w, wm.Data())
	return w, bm.Data()[0], nil
}
