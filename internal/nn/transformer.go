package nn

import (
	"fmt"

	"clinfl/internal/autograd"
	"clinfl/internal/tensor"
)

// FeedForward is the transformer position-wise MLP: GELU(xW1+b1)W2+b2.
type FeedForward struct {
	Dim, Hidden int
	W1, W2      *Linear
}

// NewFeedForward builds the MLP with the conventional 4x expansion unless
// hidden is given explicitly (>0).
func NewFeedForward(name string, dim, hidden int, rng *tensor.RNG) *FeedForward {
	if hidden <= 0 {
		hidden = 4 * dim
	}
	return &FeedForward{
		Dim:    dim,
		Hidden: hidden,
		W1:     NewLinear(name+".fc1", dim, hidden, rng),
		W2:     NewLinear(name+".fc2", hidden, dim, rng),
	}
}

// Forward applies the MLP to x (seq×dim). The first projection and its GELU
// run as a single fused tape node.
func (f *FeedForward) Forward(ctx *Ctx, x *autograd.Node) (*autograd.Node, error) {
	h, err := f.W1.ForwardGELU(ctx, x)
	if err != nil {
		return nil, err
	}
	return f.W2.Forward(ctx, h)
}

// Params implements Module.
func (f *FeedForward) Params() []*Param {
	return append(f.W1.Params(), f.W2.Params()...)
}

var _ Module = (*FeedForward)(nil)

// EncoderLayer is one pre-LN transformer encoder block:
//
//	x = x + Attn(LN1(x));  x = x + FFN(LN2(x))
//
// Pre-LN is used instead of the original post-LN because it trains stably at
// depth 12 without a warmup schedule (documented substitution in DESIGN.md).
type EncoderLayer struct {
	Attn     *MultiHeadSelfAttention
	FFN      *FeedForward
	LN1, LN2 *LayerNorm
	Dropout  float64
}

// NewEncoderLayer builds an encoder block of width dim with the given head
// count and feed-forward width.
func NewEncoderLayer(name string, dim, heads, ffnHidden int, dropout float64, rng *tensor.RNG) (*EncoderLayer, error) {
	attn, err := NewMultiHeadSelfAttention(name+".attn", dim, heads, rng)
	if err != nil {
		return nil, err
	}
	return &EncoderLayer{
		Attn:    attn,
		FFN:     NewFeedForward(name+".ffn", dim, ffnHidden, rng),
		LN1:     NewLayerNorm(name+".ln1", dim),
		LN2:     NewLayerNorm(name+".ln2", dim),
		Dropout: dropout,
	}, nil
}

// ForwardBatch applies the block to a flattened minibatch x
// ((batch·seq)×dim). LayerNorm, the FFN and dropout are position-wise, so
// they run over the flattened rows unchanged; only attention needs the
// block structure.
func (e *EncoderLayer) ForwardBatch(ctx *Ctx, x *autograd.Node, batch int, padMasks [][]bool) (*autograd.Node, error) {
	h, err := e.LN1.Forward(ctx, x)
	if err != nil {
		return nil, err
	}
	h, err = e.Attn.ForwardBatch(ctx, h, batch, padMasks)
	if err != nil {
		return nil, err
	}
	h = ctx.Tape.Dropout(h, e.Dropout, ctx.RNG, ctx.Training)
	x, err = ctx.Tape.Add(x, h)
	if err != nil {
		return nil, err
	}
	h, err = e.LN2.Forward(ctx, x)
	if err != nil {
		return nil, err
	}
	h, err = e.FFN.Forward(ctx, h)
	if err != nil {
		return nil, err
	}
	h = ctx.Tape.Dropout(h, e.Dropout, ctx.RNG, ctx.Training)
	return ctx.Tape.Add(x, h)
}

// Params implements Module.
func (e *EncoderLayer) Params() []*Param {
	var out []*Param
	out = append(out, e.Attn.Params()...)
	out = append(out, e.FFN.Params()...)
	out = append(out, e.LN1.Params()...)
	out = append(out, e.LN2.Params()...)
	return out
}

var _ Module = (*EncoderLayer)(nil)

// Encoder stacks N encoder layers with a final LayerNorm (pre-LN
// convention).
type Encoder struct {
	Layers  []*EncoderLayer
	FinalLN *LayerNorm
}

// NewEncoder builds a stack of n encoder layers.
func NewEncoder(name string, n, dim, heads, ffnHidden int, dropout float64, rng *tensor.RNG) (*Encoder, error) {
	enc := &Encoder{FinalLN: NewLayerNorm(name+".final_ln", dim)}
	for i := 0; i < n; i++ {
		layer, err := NewEncoderLayer(fmt.Sprintf("%s.layer%d", name, i), dim, heads, ffnHidden, dropout, rng)
		if err != nil {
			return nil, err
		}
		enc.Layers = append(enc.Layers, layer)
	}
	return enc, nil
}

// ForwardBatch runs the full stack over a flattened minibatch x
// ((batch·seq)×dim) on a single tape.
func (e *Encoder) ForwardBatch(ctx *Ctx, x *autograd.Node, batch int, padMasks [][]bool) (*autograd.Node, error) {
	var err error
	for _, layer := range e.Layers {
		x, err = layer.ForwardBatch(ctx, x, batch, padMasks)
		if err != nil {
			return nil, err
		}
	}
	return e.FinalLN.Forward(ctx, x)
}

// Params implements Module.
func (e *Encoder) Params() []*Param {
	var out []*Param
	for _, l := range e.Layers {
		out = append(out, l.Params()...)
	}
	return append(out, e.FinalLN.Params()...)
}

var _ Module = (*Encoder)(nil)
