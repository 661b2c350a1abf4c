// Package train implements the local training loop shared by the
// centralized, standalone and federated experiments: minibatch gradient
// computation, gradient clipping, and epoch orchestration.
//
// Execution model: one step is one forward pass and one reverse scan on
// one tape, on the goroutine that calls Step. Parallelism lives in two
// other places: across sites (the federation runs one goroutine per
// executor) and inside kernels (sched.ParallelFor, whose chunks depend
// only on the loop shape). A step's arithmetic is therefore the same at
// every pool width and every GOMAXPROCS.
//
// Allocation model: a Trainer owns one arena-backed context (tape plus
// activation and gradient memory) and recycles it across steps, so a
// steady-state Step performs no per-batch allocation. Long-lived callers
// (federated executors, pretraining loops) hold one Trainer per model.
package train

import (
	"errors"
	"fmt"

	"clinfl/internal/autograd"
	"clinfl/internal/nn"
	"clinfl/internal/opt"
	"clinfl/internal/tensor"
)

// LossFunc computes the summed loss over items on ctx's tape, returning the
// loss node and the number of loss-contributing units (examples for
// classification, masked positions for MLM).
type LossFunc[T any] func(ctx *nn.Ctx, items []T) (*autograd.Node, int, error)

// Config controls the training loop.
type Config struct {
	// BatchSize is the minibatch size (default 32).
	BatchSize int
	// ClipNorm caps the global gradient L2 norm (0 disables).
	ClipNorm float64
	// ProxMu enables a FedProx proximal term: each step adds
	// mu*(w - w_ref) to the gradient, pulling local training toward the
	// reference weights set via Trainer.SetProxRef (the round's global
	// model in federated use) so heterogeneous clients sampled under
	// partial participation don't drift apart. 0 disables.
	ProxMu float64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	return c
}

// Trainer runs minibatch steps for one model, recycling all per-step state.
//
// A Trainer is not safe for concurrent Steps; it owns its tape. It may live
// as long as the model: federated executors keep one across rounds so a
// whole FL run reuses the same tape, arena and gradient buffers.
type Trainer[T any] struct {
	params    []*nn.Param
	lossFn    LossFunc[T]
	optimizer opt.Optimizer
	cfg       Config

	index    map[*nn.Param]int
	ctx      *nn.Ctx
	shuffled []T
	epochRNG *tensor.RNG
	// proxRef holds the FedProx anchor weights by parameter index
	// (nil entries until SetProxRef; buffers are recycled across rounds).
	proxRef []*tensor.Matrix
}

// NewTrainer builds a reusable trainer. cfg is normalized once; per-step
// seeds are passed to Step/Epoch explicitly.
func NewTrainer[T any](params []*nn.Param, lossFn LossFunc[T], optimizer opt.Optimizer, cfg Config) *Trainer[T] {
	cfg = cfg.withDefaults()
	index := make(map[*nn.Param]int, len(params))
	for i, p := range params {
		index[p] = i
	}
	return &Trainer[T]{
		params:    params,
		lossFn:    lossFn,
		optimizer: optimizer,
		cfg:       cfg,
		index:     index,
		ctx:       nn.NewArenaCtx(true, tensor.NewRNG(0)),
	}
}

// SetProxRef anchors the FedProx proximal term (Config.ProxMu) at the
// given weights — in federated use, the global model a round started
// from. The values are copied into trainer-owned buffers, so the caller's
// map may be mutated afterwards. Missing or mis-shaped parameters error.
func (tr *Trainer[T]) SetProxRef(weights map[string]*tensor.Matrix) error {
	if tr.proxRef == nil {
		tr.proxRef = make([]*tensor.Matrix, len(tr.params))
	}
	for i, p := range tr.params {
		m, ok := weights[p.Name]
		if !ok {
			return fmt.Errorf("train: prox ref missing %q", p.Name)
		}
		if tr.proxRef[i] == nil {
			tr.proxRef[i] = tensor.New(p.W.Rows(), p.W.Cols())
		}
		if err := tr.proxRef[i].CopyFrom(m); err != nil {
			return fmt.Errorf("train: prox ref %q: %w", p.Name, err)
		}
	}
	return nil
}

// Step runs one forward pass and one reverse scan over the minibatch on
// the Trainer's recycled tape, applies clipping and one optimizer update,
// and returns the mean per-unit loss. seed drives the step's dropout
// stream. A model with a batched forward path sees the whole minibatch as
// one flattened computation.
func (tr *Trainer[T]) Step(items []T, seed int64) (float64, error) {
	if len(items) == 0 {
		return 0, errors.New("train: empty batch")
	}
	tr.ctx.Reset(true, seed)
	loss, count, err := tr.lossFn(tr.ctx, items)
	if err != nil {
		return 0, fmt.Errorf("train: loss: %w", err)
	}
	if count == 0 {
		return 0, errors.New("train: batch contributed no loss units")
	}
	if err := tr.ctx.Tape.Backward(loss); err != nil {
		return 0, fmt.Errorf("train: backward: %w", err)
	}
	// Harvest straight into the zeroed accumulators, normalized to a mean
	// over loss units.
	if err := tr.ctx.HarvestGrads(tr.index, 1/float64(count)); err != nil {
		return 0, fmt.Errorf("train: %w", err)
	}
	if tr.cfg.ProxMu > 0 && tr.proxRef != nil {
		// FedProx: grad += mu*(w - w_ref), applied after the data gradient
		// so clipping sees the full proximal objective's gradient.
		for i, p := range tr.params {
			if err := p.Grad.AddScaledInPlace(tr.cfg.ProxMu, p.W); err != nil {
				return 0, fmt.Errorf("train: prox %q: %w", p.Name, err)
			}
			if err := p.Grad.AddScaledInPlace(-tr.cfg.ProxMu, tr.proxRef[i]); err != nil {
				return 0, fmt.Errorf("train: prox %q: %w", p.Name, err)
			}
		}
	}
	opt.ClipGradNorm(tr.params, tr.cfg.ClipNorm)
	if err := tr.optimizer.Step(tr.params); err != nil {
		return 0, fmt.Errorf("train: optimizer: %w", err)
	}
	opt.ZeroGrads(tr.params)
	return loss.Value.At(0, 0) / float64(count), nil
}

// Epoch shuffles items (seeded by seed) and runs Step over consecutive
// minibatches, returning the mean per-unit loss across the epoch. The
// shuffle buffer and shuffle RNG are recycled across epochs.
func (tr *Trainer[T]) Epoch(items []T, seed int64) (float64, error) {
	if len(items) == 0 {
		return 0, errors.New("train: empty epoch")
	}
	if tr.epochRNG == nil {
		tr.epochRNG = tensor.NewRNG(seed)
	} else {
		tr.epochRNG.Reseed(seed)
	}
	tr.shuffled = tr.shuffled[:0]
	tr.shuffled = append(tr.shuffled, items...)
	shuffled := tr.shuffled
	tr.epochRNG.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	var lossSum float64
	batches := 0
	for lo := 0; lo < len(shuffled); lo += tr.cfg.BatchSize {
		hi := lo + tr.cfg.BatchSize
		if hi > len(shuffled) {
			hi = len(shuffled)
		}
		loss, err := tr.Step(shuffled[lo:hi], seed+int64(lo))
		if err != nil {
			return 0, fmt.Errorf("train: batch at %d: %w", lo, err)
		}
		lossSum += loss
		batches++
	}
	return lossSum / float64(batches), nil
}

// EvalLoss computes the mean per-unit loss over items without updating
// parameters (used for validation curves). All batches run on one recycled
// arena-backed context.
func EvalLoss[T any](items []T, lossFn LossFunc[T], batchSize int, seed int64) (float64, error) {
	if len(items) == 0 {
		return 0, errors.New("train: empty eval set")
	}
	if batchSize <= 0 {
		batchSize = 32
	}
	ctx := nn.NewArenaCtx(false, tensor.NewRNG(seed))
	var total float64
	count := 0
	for lo := 0; lo < len(items); lo += batchSize {
		hi := lo + batchSize
		if hi > len(items) {
			hi = len(items)
		}
		ctx.Reset(false, seed)
		loss, n, err := lossFn(ctx, items[lo:hi])
		if err != nil {
			return 0, fmt.Errorf("train: eval batch at %d: %w", lo, err)
		}
		total += loss.Value.At(0, 0)
		count += n
	}
	if count == 0 {
		return 0, errors.New("train: eval contributed no loss units")
	}
	return total / float64(count), nil
}
