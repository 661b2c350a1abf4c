// Package fl implements the federated-learning stack modeled on NVFlare's
// scatter-and-gather workflow (Fig. 1): a server-side controller that
// dispatches the global model each round, client-side executors that train
// locally, weighted FedAvg aggregation, model selection, and both an
// in-process simulator (NVFlare's simulator mode) and a networked
// deployment over the provision/transport substrate.
package fl

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"clinfl/internal/fl/hier"
	"clinfl/internal/sched"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

// ClientUpdate is one client's contribution for a round.
type ClientUpdate struct {
	ClientName string
	Round      int
	// Weights are the client's post-training parameters.
	Weights map[string]*tensor.Matrix
	// NumSamples weights this update during aggregation.
	NumSamples int
	// TrainLoss is the client's mean local training loss for the round.
	TrainLoss float64
	// PayloadBytes is the encoded update's size on the wire (0 for
	// in-process executors); experiments report bytes-on-wire from it.
	PayloadBytes int
	// DownBytes is the encoded task (global model) payload the client paid
	// to download before training this round — the downlink counterpart of
	// PayloadBytes, stamped by executors that model or measure their own
	// transfers (the simulator's clients, cost-replaying surrogates). The
	// networked server accounts downlink at send time instead and leaves
	// this zero; it is advisory accounting and is not persisted in WAL
	// update records.
	DownBytes int
	// hierPartial carries a decoded tier partial when this "update" is an
	// fl.Edge's merged uplink rather than a single client's weights; only
	// the tier sink (a tier-enabled Server, or another Edge) consumes it.
	hierPartial *hier.Partial
	// payload, when set with Weights nil, makes the update wire-backed: it
	// is the codec payload the update arrived in, and params is what the
	// check walk read of it. FedAvg and MeanAggregator fold the payload
	// straight into the round's sum; a consumer that needs the map calls
	// decode, once the params have matched the round's global model.
	payload []byte
	params  []paramCheck
	// msg is the message whose frame payload aliases, handed back to the
	// transport by release; nil when nothing is to be handed back.
	msg *transport.Message
}

// release hands the frame of a wire-backed update's payload back to the
// transport, at the payload's last read: the update reads no payload
// afterwards.
func (u *ClientUpdate) release() {
	if u.msg != nil {
		u.msg.Release()
		u.msg, u.payload, u.params = nil, nil, nil
	}
}

// wire reports whether the update is wire-backed.
func (u *ClientUpdate) wire() bool { return u.Weights == nil && u.payload != nil }

// decode gives a wire-backed update its weight map. Callers decode only
// after the schema check against the round's global model, so what is
// allocated is the model's size, never what a payload claims.
func (u *ClientUpdate) decode() error {
	if !u.wire() {
		return nil
	}
	weights, err := DecodeWeights(u.payload)
	if err != nil {
		return err
	}
	u.Weights = weights
	return nil
}

// numParams is how many params the update carries.
func (u *ClientUpdate) numParams() int {
	if u.wire() {
		return len(u.params)
	}
	return len(u.Weights)
}

// Aggregator combines client updates into a new global model.
type Aggregator interface {
	// Aggregate merges updates; the result maps parameter names to new
	// global values. An update a Server received may be wire-backed: its
	// Weights are nil and FedAvg and MeanAggregator fold its payload, so an
	// Aggregator that wraps one of them passes its updates on unchanged.
	// Such a payload is valid only during Aggregate: the Server recycles
	// the frame it arrived in once Aggregate returns, so an Aggregator
	// keeps no update past its call.
	Aggregate(updates []*ClientUpdate) (map[string]*tensor.Matrix, error)
	// Name identifies the strategy in logs and experiment records.
	Name() string
}

// FedAvg is the sample-count-weighted parameter average of McMahan et al.,
// NVFlare's default aggregator and the one the paper's pipeline uses.
type FedAvg struct{}

// Name implements Aggregator.
func (FedAvg) Name() string { return "fedavg" }

// Aggregate implements Aggregator.
func (FedAvg) Aggregate(updates []*ClientUpdate) (map[string]*tensor.Matrix, error) {
	return weightedAverage(updates, func(u *ClientUpdate) float64 {
		return float64(u.NumSamples)
	})
}

// MeanAggregator averages updates uniformly regardless of client data
// volume; included as the ablation baseline DESIGN.md calls out.
type MeanAggregator struct{}

// Name implements Aggregator.
func (MeanAggregator) Name() string { return "mean" }

// Aggregate implements Aggregator.
func (MeanAggregator) Aggregate(updates []*ClientUpdate) (map[string]*tensor.Matrix, error) {
	return weightedAverage(updates, func(*ClientUpdate) float64 { return 1 })
}

// foldBlock is the fold's block size in elements of the sum: a block is
// as many whole rows of one param as fit in 1<<13 float64s (64 KiB, well
// inside L2), or one row when a row is longer. Every update is added into
// a block before the next block starts, so the block stays in cache while
// the round's updates stream through it once.
const foldBlock = 1 << 13

// weightedAverage merges updates with the given weight function, block by
// block: for each block of whole rows of one param, every update is added
// in the order given before the next block starts, and the blocks run on
// the shared pool. Each element of the sum still adds the same terms in the
// same order, so the bits depend on neither the pool width nor the block
// split. A wire-backed update is folded from its payload, the same values
// as decoding it first: nor do they depend on which form an update is in.
// Every update is checked against the first before any element is added,
// and the first bad one in the order given is the error.
func weightedAverage(updates []*ClientUpdate, weightOf func(*ClientUpdate) float64) (map[string]*tensor.Matrix, error) {
	if len(updates) == 0 {
		return nil, errors.New("fl: no updates to aggregate")
	}
	var total float64
	for _, u := range updates {
		w := weightOf(u)
		if w <= 0 {
			return nil, fmt.Errorf("fl: client %q has non-positive weight %v", u.ClientName, w)
		}
		total += w
	}
	j := foldJobs.Get().(*foldJob)
	defer j.release()
	ref := updates[0]
	shapes := ref.params
	if !ref.wire() {
		for _, name := range slices.Sorted(maps.Keys(ref.Weights)) {
			m := ref.Weights[name]
			j.shapes = append(j.shapes, paramCheck{name: name, rows: m.Rows(), cols: m.Cols()})
		}
		shapes = j.shapes
	}
	np := len(shapes)
	j.srcs = slices.Grow(j.srcs, len(updates)*np)[:len(updates)*np]
	for i, u := range updates {
		if n := u.numParams(); n != np {
			return nil, fmt.Errorf("fl: client %q sent %d params, want %d", u.ClientName, n, np)
		}
		if err := u.foldSources(shapes, j.srcs[i*np:(i+1)*np]); err != nil {
			return nil, err
		}
		j.w = append(j.w, weightOf(u)/total)
	}
	out := make(map[string]*tensor.Matrix, np)
	elems := 0
	for k, p := range shapes {
		m := tensor.New(p.rows, p.cols)
		out[p.name] = m
		j.sums = append(j.sums, m)
		step := max(foldBlock/max(p.cols, 1), 1)
		for lo := 0; lo < p.rows; lo += step {
			j.blocks = append(j.blocks, block{k, lo, min(lo+step, p.rows)})
		}
		elems += p.rows * p.cols
	}
	// One multiply and one add per element of each update, spread evenly
	// enough over the blocks for the pool's gate.
	flops := 2 * len(updates) * elems / max(len(j.blocks), 1)
	sched.Default().ParallelFor(len(j.blocks), flops, j)
	return out, nil
}

// foldSrc is one param of one update as the fold reads it: a checked body
// of the update's payload, or the elements of its in-process matrix.
type foldSrc struct {
	body body // nil for an in-process matrix
	p    []byte
	m    []float64
}

// foldSources sets srcs[k] to the update's param shapes[k], checking each
// against its shape. shapes are in name order, as a payload's params are.
func (u *ClientUpdate) foldSources(shapes []paramCheck, srcs []foldSrc) error {
	if !u.wire() {
		for k, s := range shapes {
			m, ok := u.Weights[s.name]
			if !ok {
				return fmt.Errorf("fl: client %q missing param %q", u.ClientName, s.name)
			}
			if m.Rows() != s.rows || m.Cols() != s.cols {
				return fmt.Errorf("fl: aggregate %q from %q: %w: AddScaledInPlace %dx%d += %dx%d",
					s.name, u.ClientName, tensor.ErrShape, s.rows, s.cols, m.Rows(), m.Cols())
			}
			srcs[k] = foldSrc{m: m.Data()}
		}
		return nil
	}
	f := frameOf(u.payload)
	k := 0
	err := f.walk(u.payload, func(p param) error {
		for k < len(shapes) && shapes[k].name < string(p.name) {
			k++
		}
		if k == len(shapes) || shapes[k].name != string(p.name) || shapes[k].rows != p.rows || shapes[k].cols != p.cols {
			return fmt.Errorf("param %q shape %dx%d matches no accumulator", p.name, p.rows, p.cols)
		}
		srcs[k] = foldSrc{body: f.body, p: p.body}
		return nil
	})
	if err != nil {
		return fmt.Errorf("fl: aggregate from %q: %w", u.ClientName, err)
	}
	return nil
}

// block is rows [lo, hi) of the sum's param k.
type block struct{ k, lo, hi int }

// foldJob is one round's fold on the pool: item i is blocks[i].
type foldJob struct {
	blocks []block
	shapes []paramCheck     // the sum's params when the first update is a map
	sums   []*tensor.Matrix // by param, in name order
	srcs   []foldSrc        // update i's param k is srcs[i*len(sums)+k]
	w      []float64        // by update
}

// foldJobs recycles fold jobs, so a round allocates its sum and nothing in
// proportion to its update count.
var foldJobs = sync.Pool{New: func() any { return new(foldJob) }}

// release drops the job's references to the round's updates and sum and
// returns it to foldJobs.
func (j *foldJob) release() {
	clear(j.shapes)
	clear(j.sums)
	clear(j.srcs)
	j.blocks, j.shapes, j.sums, j.srcs, j.w = j.blocks[:0], j.shapes[:0], j.sums[:0], j.srcs[:0], j.w[:0]
	foldJobs.Put(j)
}

// Run adds every update's rows of each block in [lo, hi), in update order.
func (j *foldJob) Run(lo, hi int) {
	for _, b := range j.blocks[lo:hi] {
		acc, cols := j.sums[b.k].Data(), j.sums[b.k].Cols()
		for i, c := range j.w {
			src := j.srcs[i*len(j.sums)+b.k]
			if src.body != nil {
				src.body.fold(src.p, acc, b.lo, b.hi, cols, c)
				continue
			}
			tensor.AddScaled(acc[b.lo*cols:b.hi*cols], src.m[b.lo*cols:b.hi*cols], c)
		}
	}
}

// AsyncAggregator folds a single (possibly stale) update into the current
// global model, FedAsync-style: unlike Aggregator it does not wait for a
// batch of updates, so the controller can apply stragglers' contributions
// from earlier rounds as they trickle in.
type AsyncAggregator interface {
	// Apply mutates global in place with u's contribution. staleness is
	// how many rounds old the update is (0 = current round).
	Apply(global map[string]*tensor.Matrix, u *ClientUpdate, staleness int) error
	// Name identifies the strategy in logs and experiment records.
	Name() string
}

// FedAsync is the staleness-damped asynchronous merge of Xie et al.
// (FedAsync): global ← (1-α_s)·global + α_s·update with α_s =
// Alpha/(1+staleness), so fresher updates move the model more and ancient
// ones fade toward no-ops instead of dragging it backward.
type FedAsync struct {
	// Alpha is the mixing rate for a fresh (staleness-0) update; values in
	// (0, 1]. Zero defaults to 0.5. NewController and NewServer reject any
	// other value, NaN included.
	Alpha float64
}

// Name implements AsyncAggregator.
func (FedAsync) Name() string { return "fedasync" }

// alpha returns the mixing rate for a fresh update. Alpha must be 0 (the
// default) or in (0, 1]; the negated range check rejects NaN too.
func (f FedAsync) alpha() (float64, error) {
	if f.Alpha == 0 {
		return 0.5, nil
	}
	if !(f.Alpha > 0 && f.Alpha <= 1) {
		return 0, fmt.Errorf("FedAsync alpha %v is outside (0, 1]", f.Alpha)
	}
	return f.Alpha, nil
}

// Apply implements AsyncAggregator.
func (f FedAsync) Apply(global map[string]*tensor.Matrix, u *ClientUpdate, staleness int) error {
	alpha, err := f.alpha()
	if err != nil {
		return fmt.Errorf("fl: %w", err)
	}
	if staleness < 0 {
		return fmt.Errorf("fl: fedasync negative staleness %d", staleness)
	}
	if len(u.Weights) != len(global) {
		return fmt.Errorf("fl: fedasync: client %q sent %d params, want %d", u.ClientName, len(u.Weights), len(global))
	}
	a := alpha / float64(1+staleness)
	for name, g := range global {
		w, ok := u.Weights[name]
		if !ok {
			return fmt.Errorf("fl: fedasync: client %q missing param %q", u.ClientName, name)
		}
		g.ScaleInPlace(1 - a)
		if err := g.AddScaledInPlace(a, w); err != nil {
			return fmt.Errorf("fl: fedasync %q from %q: %w", name, u.ClientName, err)
		}
	}
	return nil
}
