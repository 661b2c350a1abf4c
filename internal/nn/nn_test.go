package nn

import (
	"testing"

	"clinfl/internal/autograd"
	"clinfl/internal/tensor"
)

// layerGradCheck verifies a layer composite against finite differences by
// exposing its parameters (and the input) as gradcheck leaves.
func layerGradCheck(t *testing.T, params []*Param, input *tensor.Matrix,
	forward func(ctx *Ctx, x *autograd.Node) (*autograd.Node, error)) {
	t.Helper()
	leaves := []*tensor.Matrix{input}
	for _, p := range params {
		leaves = append(leaves, p.W)
	}
	rel, err := autograd.GradCheck(leaves, func(tp *autograd.Tape, ns []*autograd.Node) (*autograd.Node, error) {
		ctx := &testCtx{Ctx: Ctx{Tape: tp, Training: false}, leafNodes: map[*tensor.Matrix]*autograd.Node{}}
		for i, leaf := range leaves {
			ctx.leafNodes[leaf] = ns[i]
		}
		y, err := forward(ctx.wire(params), ns[0])
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(y, y)
		if err != nil {
			return nil, err
		}
		return tp.Mean(sq), nil
	}, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if rel > 2e-4 {
		t.Fatalf("max relative gradient error %v", rel)
	}
}

// testCtx lets gradcheck rebuild a Ctx whose param leaves alias the
// gradcheck leaves.
type testCtx struct {
	Ctx
	leafNodes map[*tensor.Matrix]*autograd.Node
}

func (c *testCtx) wire(params []*Param) *Ctx {
	ctx := &c.Ctx
	ctx.leaves = make(map[*Param]*autograd.Node, len(params))
	for _, p := range params {
		if n, ok := c.leafNodes[p.W]; ok {
			ctx.leaves[p] = n
		}
	}
	return ctx
}

func TestLinearForwardShape(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear("fc", 4, 3, rng)
	ctx := NewCtx(false, nil)
	x := ctx.Tape.Constant(rng.Normal(5, 4, 0, 1))
	y, err := l.Forward(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if y.Value.Rows() != 5 || y.Value.Cols() != 3 {
		t.Fatalf("shape %dx%d", y.Value.Rows(), y.Value.Cols())
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear("fc", 3, 2, rng)
	layerGradCheck(t, l.Params(), rng.Normal(4, 3, 0, 1), l.Forward)
}

func TestLayerNormGradCheck(t *testing.T) {
	rng := tensor.NewRNG(3)
	ln := NewLayerNorm("ln", 6)
	// Perturb gain/bias away from the 1/0 init for a stronger check.
	ln.Gain.W.CopyFrom(rng.Normal(1, 6, 1, 0.2))
	ln.Bias.W.CopyFrom(rng.Normal(1, 6, 0, 0.2))
	layerGradCheck(t, ln.Params(), rng.Normal(3, 6, 0, 2), ln.Forward)
}

func TestAttentionGradCheck(t *testing.T) {
	rng := tensor.NewRNG(4)
	attn, err := NewMultiHeadSelfAttention("attn", 6, 2, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	layerGradCheck(t, attn.Params(), rng.Normal(4, 6, 0, 1),
		func(ctx *Ctx, x *autograd.Node) (*autograd.Node, error) {
			return attn.Forward(ctx, x, nil)
		})
}

func TestAttentionHeadDimDerivation(t *testing.T) {
	rng := tensor.NewRNG(5)
	// 128 not divisible by 6: Table II's BERT row — headDim rounds up.
	attn, err := NewMultiHeadSelfAttention("attn", 128, 6, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if attn.HeadDim != 22 {
		t.Fatalf("headDim %d, want ceil(128/6)=22", attn.HeadDim)
	}
	if attn.Wq.Out != 6*22 {
		t.Fatalf("inner dim %d, want 132", attn.Wq.Out)
	}
	if _, err := NewMultiHeadSelfAttention("bad", 8, 0, 0, rng); err == nil {
		t.Fatal("want error for zero heads")
	}
}

func TestAttentionPaddingMaskBlocksKeys(t *testing.T) {
	rng := tensor.NewRNG(6)
	attn, err := NewMultiHeadSelfAttention("attn", 4, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := rng.Normal(3, 4, 0, 1)

	// Output at query 0 must not change when a masked key row changes.
	run := func(xm *tensor.Matrix) []float64 {
		ctx := NewCtx(false, nil)
		y, err := attn.Forward(ctx, ctx.Tape.Constant(xm), []bool{false, false, true})
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), y.Value.Row(0)...)
	}
	base := run(x)
	x2 := x.Clone()
	for j := 0; j < 4; j++ {
		x2.Set(2, j, x2.At(2, j)+100)
	}
	got := run(x2)
	for j := range base {
		// Row 2 feeds only K/V at position 2, which is masked out.
		if diff := base[j] - got[j]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("masked key leaked into output: %v vs %v", base[j], got[j])
		}
	}
}

func TestAttentionMaskLengthError(t *testing.T) {
	rng := tensor.NewRNG(7)
	attn, _ := NewMultiHeadSelfAttention("attn", 4, 1, 0, rng)
	ctx := NewCtx(false, nil)
	x := ctx.Tape.Constant(rng.Normal(3, 4, 0, 1))
	if _, err := attn.Forward(ctx, x, []bool{false}); err == nil {
		t.Fatal("want mask length error")
	}
}

func TestFeedForwardGradCheck(t *testing.T) {
	rng := tensor.NewRNG(8)
	ff := NewFeedForward("ffn", 4, 6, rng)
	layerGradCheck(t, ff.Params(), rng.Normal(3, 4, 0, 1), ff.Forward)
}

func TestFeedForwardDefaultsTo4x(t *testing.T) {
	ff := NewFeedForward("ffn", 8, 0, tensor.NewRNG(9))
	if ff.Hidden != 32 {
		t.Fatalf("hidden %d, want 32", ff.Hidden)
	}
}

func TestEncoderLayerGradCheck(t *testing.T) {
	rng := tensor.NewRNG(10)
	layer, err := NewEncoderLayer("enc", 4, 2, 0, 8, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	layerGradCheck(t, layer.Params(), rng.Normal(3, 4, 0, 1),
		func(ctx *Ctx, x *autograd.Node) (*autograd.Node, error) {
			return layer.Forward(ctx, x, nil)
		})
}

func TestEncoderStack(t *testing.T) {
	rng := tensor.NewRNG(11)
	enc, err := NewEncoder("enc", 3, 8, 2, 0, 16, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.Layers) != 3 {
		t.Fatalf("layers %d", len(enc.Layers))
	}
	ctx := NewCtx(false, nil)
	x := ctx.Tape.Constant(rng.Normal(5, 8, 0, 1))
	y, err := enc.Forward(ctx, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if y.Value.Rows() != 5 || y.Value.Cols() != 8 {
		t.Fatalf("shape %dx%d", y.Value.Rows(), y.Value.Cols())
	}
}

func TestLSTMLayerGradCheck(t *testing.T) {
	rng := tensor.NewRNG(12)
	layer := NewLSTMLayer("lstm", 3, 4, rng)
	layerGradCheck(t, layer.Params(), rng.Normal(2, 3, 0, 1),
		func(ctx *Ctx, x *autograd.Node) (*autograd.Node, error) {
			s := layer.InitState(ctx, 2)
			s, err := layer.Step(ctx, x, s)
			if err != nil {
				return nil, err
			}
			// A second step exercises backprop through time.
			s, err = layer.Step(ctx, x, s)
			if err != nil {
				return nil, err
			}
			return s.H, nil
		})
}

func TestLSTMForgetBiasInit(t *testing.T) {
	layer := NewLSTMLayer("lstm", 3, 4, tensor.NewRNG(13))
	for j := 0; j < 16; j++ {
		want := 0.0
		if j >= 4 && j < 8 {
			want = 1 // forget-gate slice
		}
		if layer.B.W.At(0, j) != want {
			t.Fatalf("bias[%d] = %v, want %v", j, layer.B.W.At(0, j), want)
		}
	}
}

func TestLSTMStackShapes(t *testing.T) {
	rng := tensor.NewRNG(14)
	l := NewLSTM("lstm", 2, 3, 5, rng)
	ctx := NewCtx(false, nil)
	xs := make([]*autograd.Node, 4)
	for t := range xs {
		xs[t] = ctx.Tape.Constant(rng.Normal(2, 3, 0, 1))
	}
	hs, err := l.Forward(ctx, xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 4 {
		t.Fatalf("outputs %d", len(hs))
	}
	for _, h := range hs {
		if h.Value.Rows() != 2 || h.Value.Cols() != 5 {
			t.Fatalf("hidden shape %dx%d", h.Value.Rows(), h.Value.Cols())
		}
	}
	if _, err := l.Forward(ctx, nil); err == nil {
		t.Fatal("want error for empty sequence")
	}
}

func TestCollectParamsDuplicateDetection(t *testing.T) {
	rng := tensor.NewRNG(15)
	a := NewLinear("same", 2, 2, rng)
	b := NewLinear("same", 2, 2, rng)
	if _, err := CollectParams(a, b); err == nil {
		t.Fatal("want duplicate-name error")
	}
	ps, err := CollectParams(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("params %d", len(ps))
	}
}

func TestWeightsSerializationRoundTrip(t *testing.T) {
	l := NewLinear("fc", 3, 4, tensor.NewRNG(16))
	weights := SnapshotWeights(l.Params())
	if len(weights) != 2 {
		t.Fatalf("weights %d", len(weights))
	}
	clone := NewLinear("fc", 3, 4, tensor.NewRNG(999))
	if clone.W.W.Equal(l.W.W) {
		t.Fatal("different seeds should differ before load")
	}
	if err := LoadWeights(clone.Params(), weights); err != nil {
		t.Fatal(err)
	}
	if !clone.W.W.Equal(l.W.W) || !clone.B.W.Equal(l.B.W) {
		t.Fatal("load did not restore weights")
	}
	// The snapshot is a deep copy: training the source after the
	// snapshot leaves it, and what was loaded from it, unchanged.
	l.W.W.Fill(7)
	if clone.W.W.Equal(l.W.W) || weights[l.W.Name].Equal(l.W.W) {
		t.Fatal("snapshot aliases the live parameter")
	}
}

func TestLoadWeightsMissingParam(t *testing.T) {
	rng := tensor.NewRNG(17)
	l := NewLinear("fc", 2, 2, rng)
	if err := LoadWeights(l.Params(), map[string]*tensor.Matrix{}); err == nil {
		t.Fatal("want missing-weight error")
	}
}

func TestCtxSharesLeafAcrossUses(t *testing.T) {
	rng := tensor.NewRNG(18)
	l := NewLinear("fc", 2, 2, rng)
	ctx := NewCtx(true, nil)
	n1 := ctx.Node(l.W)
	n2 := ctx.Node(l.W)
	if n1 != n2 {
		t.Fatal("same param should map to one leaf per ctx (weight tying)")
	}
}

func TestCtxBackwardHarvestsIntoParams(t *testing.T) {
	rng := tensor.NewRNG(19)
	l := NewLinear("fc", 2, 1, rng)
	ctx := NewCtx(true, nil)
	x := ctx.Tape.Constant(rng.Normal(3, 2, 0, 1))
	y, err := l.Forward(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Backward(ctx.Tape.Mean(y)); err != nil {
		t.Fatal(err)
	}
	if l.W.Grad.Norm() == 0 {
		t.Fatal("weight gradient not harvested")
	}
	if l.B.Grad.Norm() == 0 {
		t.Fatal("bias gradient not harvested")
	}
}

func TestSortedByName(t *testing.T) {
	params := []*Param{
		NewParam("b", tensor.New(1, 1)),
		NewParam("a", tensor.New(1, 1)),
	}
	sorted := SortedByName(params)
	if sorted[0].Name != "a" || sorted[1].Name != "b" {
		t.Fatal("not sorted")
	}
	if params[0].Name != "b" {
		t.Fatal("input mutated")
	}
}

func TestNumParams(t *testing.T) {
	l := NewLinear("fc", 3, 4, tensor.NewRNG(20))
	if n := NumParams(l.Params()); n != 3*4+4 {
		t.Fatalf("NumParams %d, want 16", n)
	}
}
