package sim

import (
	"fmt"

	"clinfl/internal/tensor"
)

// LinearTask parameterizes the synthetic federated learning problem the
// simulator trains: each client holds a shard of a noisy linear regression
// y = x·w* + b*, with per-client heterogeneity (a client-specific tilt of
// the ground truth, the non-IID-ness knob). Linear least squares keeps the
// per-round compute trivial — scenario cost is dominated by the simulated
// system dynamics, not the model — while still giving FedAvg/FedAsync a
// real convergence signal to verify.
type LinearTask struct {
	// Dim is the feature dimension (default 8).
	Dim int
	// SamplesMin / SamplesMax bound per-client shard sizes (defaults 20,
	// 60); actual sizes are drawn uniformly, so aggregation weights vary.
	SamplesMin, SamplesMax int
	// Noise is the label-noise amplitude: labels get a uniform
	// [-Noise, Noise) perturbation (default 0.05).
	Noise float64
	// Hetero tilts each client's ground truth by a uniform [-Hetero,
	// Hetero) per-coordinate offset (default 0.2): client optima disagree,
	// so a client that trains alone drifts from the global optimum.
	Hetero float64
	// LR is the local gradient-descent learning rate (default 0.05).
	LR float64
	// Steps is the number of local full-batch GD steps per round
	// (default 4).
	Steps int
}

// withDefaults fills zero fields.
func (t LinearTask) withDefaults() LinearTask {
	if t.Dim <= 0 {
		t.Dim = 8
	}
	if t.SamplesMin <= 0 {
		t.SamplesMin = 20
	}
	if t.SamplesMax < t.SamplesMin {
		t.SamplesMax = 3 * t.SamplesMin
	}
	if t.Noise == 0 {
		t.Noise = 0.05
	}
	if t.Hetero == 0 {
		t.Hetero = 0.2
	}
	if t.LR <= 0 {
		t.LR = 0.05
	}
	if t.Steps <= 0 {
		t.Steps = 4
	}
	return t
}

// LinearShard is one client's local dataset plus its training hyperparams.
type LinearShard struct {
	task LinearTask
	x    [][]float64
	y    []float64
}

// Samples is the shard size (the client's aggregation weight).
func (s *LinearShard) Samples() int { return len(s.y) }

// Train runs the task's local GD steps starting from the global weights
// and returns the post-training weights plus the final training loss.
// All arithmetic is plain serial float64, so results are bit-identical
// everywhere.
func (s *LinearShard) Train(global map[string]*tensor.Matrix) (map[string]*tensor.Matrix, float64, error) {
	w, b, err := unpackLinear(global, s.task.Dim)
	if err != nil {
		return nil, 0, err
	}
	m := float64(len(s.y))
	gw := make([]float64, s.task.Dim)
	var loss float64
	for step := 0; step < s.task.Steps; step++ {
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
			w[j] -= s.task.LR * 2 * gw[j] / m
		}
		b -= s.task.LR * 2 * gb / m
	}
	out := InitialLinearWeights(s.task.Dim)
	copy(out["w"].Data(), w)
	out["b"].Data()[0] = b
	return out, loss, nil
}

// Population is a full client population over one ground truth, plus a
// noise-free holdout for scoring the global model.
type Population struct {
	Task   LinearTask
	Shards []*LinearShard

	truth []float64 // dim weights + bias last
	holdX [][]float64
	holdY []float64
}

// NewPopulation generates n client shards and a holdout set from seed.
// Generation order is fixed (truth, holdout, then shards in client-index
// order), so a seed pins every byte of every dataset.
func (t LinearTask) NewPopulation(seed int64, n int) *Population {
	t = t.withDefaults()
	rng := tensor.NewRNG(seed)
	truth := make([]float64, t.Dim+1)
	for i := range truth {
		truth[i] = rng.Float64()*2 - 1
	}
	p := &Population{Task: t, truth: truth}
	const holdout = 256
	p.holdX, p.holdY = genExamples(rng, t, truth, nil, holdout, 0)
	for c := 0; c < n; c++ {
		m := t.SamplesMin + rng.Intn(t.SamplesMax-t.SamplesMin+1)
		tilt := make([]float64, t.Dim)
		for i := range tilt {
			tilt[i] = (rng.Float64()*2 - 1) * t.Hetero
		}
		x, y := genExamples(rng, t, truth, tilt, m, t.Noise)
		p.Shards = append(p.Shards, &LinearShard{task: t, x: x, y: y})
	}
	return p
}

// genExamples draws m examples from the (optionally tilted) ground truth.
func genExamples(rng *tensor.RNG, t LinearTask, truth, tilt []float64, m int, noise float64) ([][]float64, []float64) {
	x := make([][]float64, m)
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		xi := make([]float64, t.Dim)
		yi := truth[t.Dim] // bias
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
	w, b, err := unpackLinear(weights, p.Task.Dim)
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

// InitialLinearWeights is the zero starting model for a LinearTask.
func InitialLinearWeights(dim int) map[string]*tensor.Matrix {
	return map[string]*tensor.Matrix{
		"w": tensor.New(1, dim),
		"b": tensor.New(1, 1),
	}
}

// unpackLinear extracts (w, b) from a weight map, copying w so training
// never mutates the caller's global model.
func unpackLinear(weights map[string]*tensor.Matrix, dim int) ([]float64, float64, error) {
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
