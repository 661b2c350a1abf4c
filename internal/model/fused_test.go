package model

import (
	"math"
	"testing"

	"clinfl/internal/autograd"
	"clinfl/internal/data"
	"clinfl/internal/nn"
	"clinfl/internal/tensor"
)

// The production forward path routes every projection through the fused
// tape kernels (Affine, LinearGELU, the scale-folded block score matmul).
// This test rebuilds the full BERT classification forward out of the
// primitive unfused ops (MatMul + AddRowVector, separate GELU, unscaled
// block matmul + Scale) over the same weights and pins logits, loss and
// every parameter gradient to within 1e-9 of the fused path.

// unfusedLinear applies l as the MatMul + AddRowVector chain the fused
// Affine node replaced.
func unfusedLinear(t *testing.T, ctx *nn.Ctx, l *nn.Linear, x *autograd.Node) *autograd.Node {
	t.Helper()
	h, err := ctx.Tape.MatMul(x, ctx.Node(l.W), 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err = ctx.Tape.AddRowVector(h, ctx.Node(l.B))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// unfusedAttention replicates MultiHeadSelfAttention.ForwardBatch with the
// score scale as a separate Scale node instead of folded into the block
// matmul.
func unfusedAttention(t *testing.T, ctx *nn.Ctx, a *nn.MultiHeadSelfAttention, x *autograd.Node, batch int, padMasks [][]bool) *autograd.Node {
	t.Helper()
	q := unfusedLinear(t, ctx, a.Wq, x)
	k := unfusedLinear(t, ctx, a.Wk, x)
	v := unfusedLinear(t, ctx, a.Wv, x)
	scale := 1 / math.Sqrt(float64(a.HeadDim))
	var cat *autograd.Node
	for h := 0; h < a.Heads; h++ {
		lo, hi := h*a.HeadDim, (h+1)*a.HeadDim
		qh, err := ctx.Tape.SliceCols(q, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		kh, err := ctx.Tape.SliceCols(k, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		vh, err := ctx.Tape.SliceCols(v, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		scores, err := ctx.Tape.MatMulTransB(qh, kh, batch, 1)
		if err != nil {
			t.Fatal(err)
		}
		scores = ctx.Tape.Scale(scale, scores)
		attn, err := ctx.Tape.SoftmaxRows(scores, batch, padMasks)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ctx.Tape.MatMul(attn, vh, batch)
		if err != nil {
			t.Fatal(err)
		}
		if cat == nil {
			cat = out
		} else if cat, err = ctx.Tape.ConcatCols(cat, out); err != nil {
			t.Fatal(err)
		}
	}
	return unfusedLinear(t, ctx, a.Wo, cat)
}

// unfusedClassifyLoss replicates BERT.LossBatch for a single-length-group
// batch entirely out of unfused primitive ops.
func unfusedClassifyLoss(t *testing.T, b *BERT, ctx *nn.Ctx, idsBatch [][]int, padMasks [][]bool, labels []int) (*autograd.Node, *autograd.Node) {
	t.Helper()
	seq := len(idsBatch[0])
	tok, err := b.tokEmb.ForwardBatch(ctx, idsBatch)
	if err != nil {
		t.Fatal(err)
	}
	positions := make([]int, len(idsBatch)*seq)
	for i := range positions {
		positions[i] = i % seq
	}
	pos, err := b.posEmb.Forward(ctx, positions)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ctx.Tape.Add(tok, pos)
	if err != nil {
		t.Fatal(err)
	}
	if x, err = b.embLN.Forward(ctx, x); err != nil {
		t.Fatal(err)
	}
	for _, layer := range b.enc.Layers {
		h, err := layer.LN1.Forward(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		h = unfusedAttention(t, ctx, layer.Attn, h, len(idsBatch), padMasks)
		if x, err = ctx.Tape.Add(x, h); err != nil {
			t.Fatal(err)
		}
		if h, err = layer.LN2.Forward(ctx, x); err != nil {
			t.Fatal(err)
		}
		h = unfusedLinear(t, ctx, layer.FFN.W1, h)
		h = ctx.Tape.GELU(h)
		h = unfusedLinear(t, ctx, layer.FFN.W2, h)
		if x, err = ctx.Tape.Add(x, h); err != nil {
			t.Fatal(err)
		}
	}
	if x, err = b.enc.FinalLN.Forward(ctx, x); err != nil {
		t.Fatal(err)
	}
	clsRows := make([]int, len(idsBatch))
	for i := range clsRows {
		clsRows[i] = i * seq
	}
	cls, err := ctx.Tape.GatherRows(x, clsRows)
	if err != nil {
		t.Fatal(err)
	}
	p := unfusedLinear(t, ctx, b.pooler, cls)
	p = ctx.Tape.Tanh(p)
	logits := unfusedLinear(t, ctx, b.clsOut, p)
	ce, counted, err := ctx.Tape.CrossEntropy(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	loss := ctx.Tape.Scale(float64(counted), ce)
	sum, err := ctx.Tape.SumScalars(loss)
	if err != nil {
		t.Fatal(err)
	}
	return sum, logits
}

func TestFusedLossMatchesUnfused(t *testing.T) {
	b := equivBERT(t)
	b.cfg.Dropout = 0
	for _, l := range b.enc.Layers {
		l.Dropout = 0
	}
	rng := tensor.NewRNG(31)
	batch := make([]data.Example, 5)
	for i := range batch {
		batch[i] = equivExample(rng, 9+rng.Intn(3), 12, i%2)
	}
	idsBatch := make([][]int, len(batch))
	padMasks := make([][]bool, len(batch))
	labels := make([]int, len(batch))
	for i, ex := range batch {
		idsBatch[i], padMasks[i], labels[i] = ex.IDs, ex.PadMask, ex.Label
	}

	// Fused production path.
	fusedCtx := nn.NewCtx(true, tensor.NewRNG(1))
	fusedLoss, _, err := b.LossBatch(fusedCtx, batch)
	if err != nil {
		t.Fatal(err)
	}
	fusedLogits, err := b.classifyLogitsBatch(nn.NewCtx(false, nil), idsBatch, padMasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := fusedCtx.Tape.Backward(fusedLoss); err != nil {
		t.Fatal(err)
	}
	fusedGrads := make(map[*nn.Param]*tensor.Matrix)
	if err := fusedCtx.HarvestInto(fusedGrads); err != nil {
		t.Fatal(err)
	}

	// Unfused replica on the same weights.
	unfusedCtx := nn.NewCtx(true, tensor.NewRNG(1))
	unfusedLoss, unfusedLogits := unfusedClassifyLoss(t, b, unfusedCtx, idsBatch, padMasks, labels)
	if err := unfusedCtx.Tape.Backward(unfusedLoss); err != nil {
		t.Fatal(err)
	}
	unfusedGrads := make(map[*nn.Param]*tensor.Matrix)
	if err := unfusedCtx.HarvestInto(unfusedGrads); err != nil {
		t.Fatal(err)
	}

	if !fusedLogits.Value.AllClose(unfusedLogits.Value, 1e-9, 1e-9) {
		t.Fatal("fused and unfused logits diverge beyond 1e-9")
	}
	got, want := fusedLoss.Value.At(0, 0), unfusedLoss.Value.At(0, 0)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("fused loss %v vs unfused loss %v", got, want)
	}
	for _, p := range b.Params() {
		fg, ug := fusedGrads[p], unfusedGrads[p]
		if fg == nil && ug == nil {
			continue
		}
		if fg == nil || ug == nil {
			t.Fatalf("param %q: gradient present in only one path", p.Name)
		}
		if !fg.AllClose(ug, 1e-9, 1e-9) {
			t.Fatalf("param %q: fused and unfused gradients diverge beyond 1e-9", p.Name)
		}
	}
}
