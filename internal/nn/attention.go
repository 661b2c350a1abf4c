package nn

import (
	"fmt"
	"math"

	"clinfl/internal/autograd"
	"clinfl/internal/tensor"
)

// MultiHeadSelfAttention implements the scaled dot-product attention block
// of the transformer encoder: per head h,
//
//	Attn_h(X) = softmax(Q_h K_hᵀ / √d_h + M) V_h
//
// with learned projections Q=XWq, K=XWk, V=XWv and an output projection Wo.
// M is an additive key-padding mask (-inf at padded positions).
//
// As in x-transformers (the paper's transformer library), the per-head
// width HeadDim is independent of the model width: the projections map
// dim → heads·HeadDim and Wo maps back. This is what lets Table II pair
// hidden size 128 with 6 attention heads.
type MultiHeadSelfAttention struct {
	Dim, Heads, HeadDim int
	Wq, Wk, Wv, Wo      *Linear
}

// NewMultiHeadSelfAttention builds an attention block whose head width is
// dim/heads, rounded up when not divisible.
func NewMultiHeadSelfAttention(name string, dim, heads int, rng *tensor.RNG) (*MultiHeadSelfAttention, error) {
	if heads <= 0 {
		return nil, fmt.Errorf("nn: attention %s: heads must be positive, got %d", name, heads)
	}
	headDim := (dim + heads - 1) / heads
	inner := heads * headDim
	return &MultiHeadSelfAttention{
		Dim:     dim,
		Heads:   heads,
		HeadDim: headDim,
		Wq:      NewLinear(name+".q", dim, inner, rng),
		Wk:      NewLinear(name+".k", dim, inner, rng),
		Wv:      NewLinear(name+".v", dim, inner, rng),
		Wo:      NewLinear(name+".out", inner, dim, rng),
	}, nil
}

// ForwardBatch attends over a flattened minibatch x ((batch·seq)×dim, with
// each sequence occupying a contiguous block of seq rows). padMasks, if
// non-nil, holds one key-padding mask per sequence; the block softmax
// checks and consumes it directly, so no dense seq×seq mask matrix is ever
// built.
// Attention scores are computed per row block and never cross sequence
// boundaries.
func (a *MultiHeadSelfAttention) ForwardBatch(ctx *Ctx, x *autograd.Node, batch int, padMasks [][]bool) (*autograd.Node, error) {
	rows := x.Value.Rows()
	if batch <= 0 || rows%batch != 0 {
		return nil, fmt.Errorf("nn: attention: %d rows not divisible into %d sequences", rows, batch)
	}
	q, err := a.Wq.Forward(ctx, x)
	if err != nil {
		return nil, err
	}
	k, err := a.Wk.Forward(ctx, x)
	if err != nil {
		return nil, err
	}
	v, err := a.Wv.Forward(ctx, x)
	if err != nil {
		return nil, err
	}

	scale := 1 / math.Sqrt(float64(a.HeadDim))
	headOuts := make([]*autograd.Node, a.Heads)
	for h := 0; h < a.Heads; h++ {
		lo, hi := h*a.HeadDim, (h+1)*a.HeadDim
		qh, err := ctx.Tape.SliceCols(q, lo, hi)
		if err != nil {
			return nil, err
		}
		kh, err := ctx.Tape.SliceCols(k, lo, hi)
		if err != nil {
			return nil, err
		}
		vh, err := ctx.Tape.SliceCols(v, lo, hi)
		if err != nil {
			return nil, err
		}
		// One block per sequence; the 1/√d score scale is folded into the
		// score matmul, so no separate Scale node (or full score-matrix
		// copy) is recorded.
		scores, err := ctx.Tape.MatMulTransB(qh, kh, batch, scale)
		if err != nil {
			return nil, err
		}
		attn, err := ctx.Tape.SoftmaxRows(scores, batch, padMasks)
		if err != nil {
			return nil, err
		}
		out, err := ctx.Tape.MatMul(attn, vh, batch)
		if err != nil {
			return nil, err
		}
		headOuts[h] = out
	}

	cat := headOuts[0]
	for h := 1; h < a.Heads; h++ {
		var err error
		cat, err = ctx.Tape.ConcatCols(cat, headOuts[h])
		if err != nil {
			return nil, err
		}
	}
	return a.Wo.Forward(ctx, cat)
}

// Params implements Module.
func (a *MultiHeadSelfAttention) Params() []*Param {
	var out []*Param
	for _, l := range []*Linear{a.Wq, a.Wk, a.Wv, a.Wo} {
		out = append(out, l.Params()...)
	}
	return out
}

var _ Module = (*MultiHeadSelfAttention)(nil)
