// Package train implements the local training loop shared by the
// centralized, standalone and federated experiments: data-parallel
// minibatch gradient computation across goroutines, gradient clipping, and
// epoch orchestration.
//
// Parallelism model: model parameters are read-only during forward/backward
// passes, so participants each run sub-batches on a private autograd tape
// and harvest gradients into per-sub-batch buffers; the step then reduces
// the buffers into the shared accumulators in sub-batch order and applies
// the optimizer once. Sub-batches are drained from a shared queue by a
// fork-join Fan on the process-wide sched pool: the stepping goroutine
// always participates, and idle pool workers join opportunistically, so
// concurrent trainers (federated clients in one round) share the machine
// instead of each spawning their own worker set and oversubscribing it.
// Because gradients are staged per sub-batch and reduced in a fixed
// order, a step's arithmetic is bit-identical at every pool width — and,
// when SubBatch is set explicitly, at every Workers count too.
//
// Allocation model: a Trainer owns all per-participant state — arena-
// backed contexts (tape + activation/gradient memory) and per-sub-batch
// flat gradient buffers keyed by parameter index — and recycles it across
// steps, so a steady-state Step performs no per-batch allocation.
// Long-lived callers (federated executors, pretraining loops) hold one
// Trainer per model.
package train

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"clinfl/internal/autograd"
	"clinfl/internal/nn"
	"clinfl/internal/opt"
	"clinfl/internal/sched"
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
	// Workers is the data-parallel goroutine count (default GOMAXPROCS).
	Workers int
	// SubBatch is the number of contiguous items handed to a worker's loss
	// function at a time. Models with a batched forward path (BERT, LSTM)
	// process each sub-batch as one flattened computation on one tape, so
	// this bounds per-tape memory while keeping matmuls large. <=0 derives
	// ceil(batch/Workers): one sub-batch per worker. Gradients stage per
	// sub-batch (the fixed reduce order that makes steps bit-identical at
	// any pool width), so an explicitly small SubBatch also multiplies the
	// staging footprint: ceil(batch/SubBatch) full parameter-sized buffer
	// sets live for the Trainer's lifetime, versus Workers sets at the
	// default.
	SubBatch int
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
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// subResult carries one sub-batch's outcome from a worker to the reduce.
type subResult struct {
	loss  float64
	count int
	err   error
}

// trainWorker is the reusable per-participant state: an arena-backed
// context whose tape and activation memory are recycled across steps.
type trainWorker struct {
	ctx *nn.Ctx
}

// subSlot stages one sub-batch's gradients: flat buffers keyed by
// parameter index plus touch marks. Staging per sub-batch (rather than
// per worker) is what makes the reduce order — and therefore the step's
// floating-point arithmetic — independent of which participant happened
// to claim which sub-batch.
type subSlot struct {
	grads   []*tensor.Matrix
	touched []bool
}

// clearTouched zeroes the buffers dirtied by the previous step and resets
// the marks, leaving untouched (already zero) buffers alone.
func (s *subSlot) clearTouched() {
	for i, t := range s.touched {
		if t {
			s.grads[i].Zero()
			s.touched[i] = false
		}
	}
}

// Trainer runs minibatch steps for one model, recycling all per-step state.
//
// A Trainer is not safe for concurrent Steps; it owns its workers. It may
// live as long as the model: federated executors keep one across rounds so
// a whole FL run reuses the same tapes, arenas and gradient buffers.
type Trainer[T any] struct {
	params    []*nn.Param
	lossFn    LossFunc[T]
	optimizer opt.Optimizer
	cfg       Config

	index    map[*nn.Param]int
	workers  []*trainWorker
	subs     []*subSlot
	results  []subResult
	shuffled []T
	epochRNG *tensor.RNG
	fan      stepFan[T]
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
		workers:   make([]*trainWorker, cfg.Workers),
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

// worker returns participant w's state, building it on first use.
func (tr *Trainer[T]) worker(w int) *trainWorker {
	ws := tr.workers[w]
	if ws == nil {
		ws = &trainWorker{ctx: nn.NewArenaCtx(true, tensor.NewRNG(0))}
		tr.workers[w] = ws
	}
	return ws
}

// sub returns sub-batch slot s's staging buffers, building them on first
// use (the slot count follows the largest nSub a step has seen).
func (tr *Trainer[T]) sub(s int) *subSlot {
	sl := tr.subs[s]
	if sl == nil {
		sl = &subSlot{
			grads:   make([]*tensor.Matrix, len(tr.params)),
			touched: make([]bool, len(tr.params)),
		}
		for i, p := range tr.params {
			sl.grads[i] = tensor.New(p.W.Rows(), p.W.Cols())
		}
		tr.subs[s] = sl
	}
	return sl
}

// runSub processes sub-batch s on worker ws: forward, backward, harvest
// into the sub-batch's own staging slot.
func (tr *Trainer[T]) runSub(ws *trainWorker, s, subBatch int, items []T, seed int64) {
	lo := s * subBatch
	hi := lo + subBatch
	if hi > len(items) {
		hi = len(items)
	}
	// Seed by sub-batch index, not worker id, so for a fixed sub-batch
	// partition the dropout streams don't depend on which worker picks a
	// sub-batch up. Full independence from the worker count requires an
	// explicit cfg.SubBatch (the default size is derived from Workers).
	ws.ctx.Reset(true, seed+int64(s)*1_000_003)
	loss, count, err := tr.lossFn(ws.ctx, items[lo:hi])
	if err != nil {
		tr.results[s] = subResult{err: err}
		return
	}
	if err := ws.ctx.Tape.Backward(loss); err != nil {
		tr.results[s] = subResult{err: err}
		return
	}
	slot := tr.sub(s)
	if err := ws.ctx.HarvestGrads(tr.index, slot.grads, slot.touched); err != nil {
		tr.results[s] = subResult{err: err}
		return
	}
	tr.results[s] = subResult{loss: loss.Value.At(0, 0), count: count}
}

// Step computes gradients for one minibatch in parallel, applies clipping
// and one optimizer update, and returns the mean per-unit loss. seed drives
// the sub-batch dropout streams.
//
// The minibatch is cut into contiguous sub-batches of cfg.SubBatch items;
// participants pull sub-batches from a shared queue and run each on their
// recycled tape via lossFn, so a model with a batched forward path sees
// whole sub-batches as single flattened computations. The queue is drained
// by a Fan on the shared sched pool: the caller always participates, and
// up to Workers-1 idle pool workers join. With one effective worker the
// fork is skipped entirely and the step runs inline, allocation-free in
// steady state. Gradients stage per sub-batch and reduce in sub-batch
// order, so the update is bit-identical regardless of how many pool
// workers actually showed up.
func (tr *Trainer[T]) Step(items []T, seed int64) (float64, error) {
	if len(items) == 0 {
		return 0, errors.New("train: empty batch")
	}
	workers := tr.cfg.Workers
	if workers > len(items) {
		workers = len(items)
	}
	subBatch := tr.cfg.SubBatch
	if subBatch <= 0 {
		subBatch = (len(items) + workers - 1) / workers
	}
	nSub := (len(items) + subBatch - 1) / subBatch
	if workers > nSub {
		workers = nSub
	}

	if cap(tr.results) < nSub {
		tr.results = make([]subResult, nSub)
	}
	tr.results = tr.results[:nSub]
	for i := range tr.results {
		tr.results[i] = subResult{}
	}
	if len(tr.subs) < nSub {
		grown := make([]*subSlot, nSub)
		copy(grown, tr.subs)
		tr.subs = grown
	}
	for _, sl := range tr.subs {
		if sl != nil {
			sl.clearTouched()
		}
	}

	if workers == 1 {
		ws := tr.worker(0)
		for s := 0; s < nSub; s++ {
			tr.runSub(ws, s, subBatch, items, seed)
			if tr.results[s].err != nil {
				break
			}
		}
	} else {
		// In its own method so the fan state never escapes to the heap on
		// the single-worker inline path.
		tr.stepParallel(workers, nSub, subBatch, items, seed)
	}

	var totalLoss float64
	totalCount := 0
	for _, r := range tr.results {
		if r.err != nil {
			return 0, fmt.Errorf("train: worker: %w", r.err)
		}
		totalLoss += r.loss
		totalCount += r.count
	}
	if totalCount == 0 {
		return 0, errors.New("train: batch contributed no loss units")
	}

	// Reduce staged gradients into the shared accumulators in sub-batch
	// order (fixed regardless of scheduling), normalizing to a mean over
	// loss units.
	inv := 1 / float64(totalCount)
	for s := 0; s < nSub; s++ {
		sl := tr.subs[s]
		if sl == nil {
			continue
		}
		for i, t := range sl.touched {
			if !t {
				continue
			}
			if err := tr.params[i].Grad.AddScaledInPlace(inv, sl.grads[i]); err != nil {
				return 0, fmt.Errorf("train: reduce %q: %w", tr.params[i].Name, err)
			}
		}
	}
	if tr.cfg.ProxMu > 0 && tr.proxRef != nil {
		// FedProx: grad += mu*(w - w_ref), applied after the data-gradient
		// reduce so clipping sees the full proximal objective's gradient.
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
	return totalLoss / float64(totalCount), nil
}

// stepFan drains the sub-batch queue from Fan slots. It lives on the
// Trainer (not the stack) so forking a step allocates nothing; each slot
// lazily owns one trainWorker, so participants never share a tape.
type stepFan[T any] struct {
	tr       *Trainer[T]
	items    []T
	subBatch int
	nSub     int
	seed     int64
	next     atomic.Int64
	failed   atomic.Bool
}

// RunSlot implements sched.SlotRunner: claim sub-batches until the queue
// (or the step, on error) is exhausted.
func (f *stepFan[T]) RunSlot(slot int) {
	for !f.failed.Load() {
		s := int(f.next.Add(1)) - 1
		if s >= f.nSub {
			return
		}
		f.tr.runSub(f.tr.worker(slot), s, f.subBatch, f.items, f.seed)
		if f.tr.results[s].err != nil {
			f.failed.Store(true)
			return
		}
	}
}

// stepParallel fans the sub-batch queue across the shared pool: the
// stepping goroutine drains as slot 0 and up to workers-1 idle pool
// workers join. When every pool worker is busy (other federated clients
// training), the step simply runs on its caller — concurrency across
// clients is arbitrated by the one pool rather than stacking goroutines.
func (tr *Trainer[T]) stepParallel(workers, nSub, subBatch int, items []T, seed int64) {
	tr.fan.tr = tr
	tr.fan.items = items
	tr.fan.subBatch = subBatch
	tr.fan.nSub = nSub
	tr.fan.seed = seed
	tr.fan.next.Store(0)
	tr.fan.failed.Store(false)
	sched.Default().Fan(workers, &tr.fan)
	tr.fan.items = nil
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
