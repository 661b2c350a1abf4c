// Package nn provides neural-network building blocks — parameter
// management, linear/embedding/normalization layers, multi-head
// self-attention, feed-forward blocks and LSTMs — on top of the autograd
// engine. The layers mirror the PyTorch modules the paper's reference
// implementation composes (x-transformers, mlm-pytorch, torch.nn.LSTM).
package nn

import (
	"fmt"
	"sort"

	"clinfl/internal/autograd"
	"clinfl/internal/tensor"
)

// Param is a named trainable weight matrix with its accumulated gradient.
//
// The weight W is read-only during forward/backward passes (which may run
// concurrently across goroutines, each on its own tape); gradients are
// harvested from tape leaves into Grad by the training loop, and the
// optimizer then updates W between passes.
type Param struct {
	Name string
	W    *tensor.Matrix
	Grad *tensor.Matrix
}

// NewParam wraps w as a parameter with a zeroed gradient buffer.
func NewParam(name string, w *tensor.Matrix) *Param {
	return &Param{Name: name, W: w, Grad: tensor.New(w.Rows(), w.Cols())}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Size returns the number of scalar weights.
func (p *Param) Size() int { return p.W.Size() }

// Module is anything exposing trainable parameters.
type Module interface {
	// Params returns the module's parameters. The returned slice is owned
	// by the caller; the *Param values are shared with the module.
	Params() []*Param
}

// CollectParams flattens the parameters of several modules, verifying that
// names are unique (required for serialization and FL parameter exchange).
func CollectParams(mods ...Module) ([]*Param, error) {
	var out []*Param
	seen := make(map[string]bool)
	for _, m := range mods {
		for _, p := range m.Params() {
			if seen[p.Name] {
				return nil, fmt.Errorf("nn: duplicate parameter name %q", p.Name)
			}
			seen[p.Name] = true
			out = append(out, p)
		}
	}
	return out, nil
}

// NumParams returns the total scalar weight count of params.
func NumParams(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Size()
	}
	return n
}

// SortedByName returns a copy of params sorted by name, the canonical order
// for serialization.
func SortedByName(params []*Param) []*Param {
	out := append([]*Param(nil), params...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Ctx carries per-forward-pass state: the autograd tape, the train/eval
// mode, and the RNG used by dropout. A Ctx must not be shared across
// goroutines; concurrent workers each build their own.
//
// A Ctx is reusable: Reset recycles the tape (and its arena, if built with
// NewArenaCtx) so a long-lived worker runs every sub-batch through the same
// context with zero steady-state allocation.
type Ctx struct {
	Tape     *autograd.Tape
	Training bool
	RNG      *tensor.RNG

	leaves map[*Param]*autograd.Node
}

// NewCtx returns a forward-pass context on a fresh heap-backed tape.
func NewCtx(training bool, rng *tensor.RNG) *Ctx {
	return &Ctx{
		Tape:     autograd.NewTape(),
		Training: training,
		RNG:      rng,
		leaves:   make(map[*Param]*autograd.Node),
	}
}

// NewArenaCtx returns a reusable forward-pass context whose tape draws all
// node values, gradients and scratch from a private arena. Every matrix the
// tape produces is invalidated by Reset; callers must copy out anything
// (losses, logits, harvested gradients) they need across resets.
func NewArenaCtx(training bool, rng *tensor.RNG) *Ctx {
	return &Ctx{
		Tape:     autograd.NewTapeArena(tensor.NewArena()),
		Training: training,
		RNG:      rng,
		leaves:   make(map[*Param]*autograd.Node),
	}
}

// Reset recycles the context for the next forward pass: the tape (and
// arena) rewind, leaf bindings clear, and the dropout RNG reseeds to the
// stream NewRNG(seed) would produce. No memory is released or allocated.
func (c *Ctx) Reset(training bool, seed int64) {
	c.Tape.Reset()
	clear(c.leaves)
	c.Training = training
	if c.RNG != nil {
		c.RNG.Reseed(seed)
	}
}

// Node returns the tape leaf for p, creating it on first use so that a
// parameter used by several layers (weight tying) accumulates a single
// gradient.
func (c *Ctx) Node(p *Param) *autograd.Node {
	if n, ok := c.leaves[p]; ok {
		return n
	}
	n := c.Tape.Leaf(p.W)
	c.leaves[p] = n
	return n
}

// Backward runs reverse-mode differentiation from loss and harvests leaf
// gradients into each parameter's Grad accumulator.
func (c *Ctx) Backward(loss *autograd.Node) error {
	if err := c.Tape.Backward(loss); err != nil {
		return fmt.Errorf("nn: backward: %w", err)
	}
	for p, leaf := range c.leaves {
		if leaf.Grad != nil {
			if err := p.Grad.AddInPlace(leaf.Grad); err != nil {
				return fmt.Errorf("nn: harvest %q: %w", p.Name, err)
			}
		}
	}
	return nil
}

// HarvestInto accumulates leaf gradients into dst (a parallel gradient
// buffer keyed by parameter) instead of the shared Param.Grad; used by
// concurrent minibatch workers that reduce afterwards.
func (c *Ctx) HarvestInto(dst map[*Param]*tensor.Matrix) error {
	for p, leaf := range c.leaves {
		if leaf.Grad == nil {
			continue
		}
		buf, ok := dst[p]
		if !ok {
			buf = tensor.New(p.W.Rows(), p.W.Cols())
			dst[p] = buf
		}
		if err := buf.AddInPlace(leaf.Grad); err != nil {
			return fmt.Errorf("nn: harvest %q: %w", p.Name, err)
		}
	}
	return nil
}

// HarvestGrads accumulates leaf gradients into dst, a flat buffer slice
// keyed by parameter index (index maps each parameter to its position), and
// marks each harvested index in touched. Unlike the map form, the buffers
// are caller-owned and recycled across steps, so steady-state harvesting
// allocates nothing. Buffers of untouched indices are left alone; callers
// zero touched buffers between steps.
func (c *Ctx) HarvestGrads(index map[*Param]int, dst []*tensor.Matrix, touched []bool) error {
	for p, leaf := range c.leaves {
		if leaf.Grad == nil {
			continue
		}
		i, ok := index[p]
		if !ok {
			return fmt.Errorf("nn: harvest %q: parameter not in index", p.Name)
		}
		if err := dst[i].AddInPlace(leaf.Grad); err != nil {
			return fmt.Errorf("nn: harvest %q: %w", p.Name, err)
		}
		touched[i] = true
	}
	return nil
}

// LoadWeights copies values from a weight map into matching params,
// verifying every parameter is present with the right shape.
func LoadWeights(params []*Param, weights map[string]*tensor.Matrix) error {
	for _, p := range params {
		m, ok := weights[p.Name]
		if !ok {
			return fmt.Errorf("nn: missing weight %q", p.Name)
		}
		if err := p.W.CopyFrom(m); err != nil {
			return fmt.Errorf("nn: load %q: %w", p.Name, err)
		}
	}
	return nil
}

// SnapshotWeights deep-copies the current parameter values into a map.
func SnapshotWeights(params []*Param) map[string]*tensor.Matrix {
	out := make(map[string]*tensor.Matrix, len(params))
	for _, p := range params {
		out[p.Name] = p.W.Clone()
	}
	return out
}
