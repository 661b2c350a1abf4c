package model

import (
	"math"
	"testing"

	"clinfl/internal/autograd"
	"clinfl/internal/data"
	"clinfl/internal/mlm"
	"clinfl/internal/nn"
	"clinfl/internal/tensor"
	"clinfl/internal/token"
)

// equivBERT builds a small fixed-seed BERT for equivalence testing.
func equivBERT(t *testing.T) *BERT {
	t.Helper()
	b, err := NewBERT(BERTConfig{
		Name:       "equiv",
		VocabSize:  40,
		MaxLen:     12,
		Dim:        16,
		Layers:     2,
		Heads:      2,
		Dropout:    0.1, // inert in eval mode; exercised by the grad test's zero-p configs
		NumClasses: 2,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// equivExample builds one example of the given real length padded to total.
func equivExample(rng *tensor.RNG, realLen, total int, label int) data.Example {
	ids := make([]int, total)
	padMask := make([]bool, total)
	ids[0] = token.CLS
	for i := 1; i < realLen-1; i++ {
		ids[i] = token.NumSpecial + rng.Intn(40-token.NumSpecial)
	}
	ids[realLen-1] = token.SEP
	for i := realLen; i < total; i++ {
		ids[i] = token.PAD
		padMask[i] = true
	}
	return data.Example{IDs: ids, PadMask: padMask, Label: label}
}

// perSeqClassifyLogits is the reference per-sequence path: one B=1 forward
// per example, exactly what the pre-batching implementation computed.
func perSeqClassifyLogits(t *testing.T, b *BERT, ctx *nn.Ctx, ex data.Example) *autograd.Node {
	t.Helper()
	logits, err := b.classifyLogitsBatch(ctx, [][]int{ex.IDs}, [][]bool{ex.PadMask})
	if err != nil {
		t.Fatal(err)
	}
	return logits
}

func TestBatchedClassifyMatchesPerSequence(t *testing.T) {
	b := equivBERT(t)
	rng := tensor.NewRNG(7)
	// Mixed lengths exercise the length-grouping path on top of batching.
	batch := []data.Example{
		equivExample(rng, 10, 12, 1),
		equivExample(rng, 6, 8, 0),
		equivExample(rng, 12, 12, 1),
		equivExample(rng, 8, 8, 0),
		equivExample(rng, 9, 12, 0),
	}

	lens := make([]int, len(batch))
	for i, ex := range batch {
		lens[i] = len(ex.IDs)
	}
	for _, idx := range lengthGroups(lens) {
		idsBatch, padMasks, _ := groupInputs(batch, idx)
		ctx := nn.NewCtx(false, nil)
		batched, err := b.classifyLogitsBatch(ctx, idsBatch, padMasks)
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range idx {
			ref := perSeqClassifyLogits(t, b, nn.NewCtx(false, nil), batch[j])
			for c := 0; c < batched.Value.Cols(); c++ {
				got, want := batched.Value.At(i, c), ref.Value.At(0, c)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("example %d class %d: batched logit %v vs per-sequence %v", j, c, got, want)
				}
			}
		}
	}
}

func TestBatchedLossMatchesPerSequenceSum(t *testing.T) {
	b := equivBERT(t)
	rng := tensor.NewRNG(8)
	batch := make([]data.Example, 6)
	for i := range batch {
		batch[i] = equivExample(rng, 8+rng.Intn(4), 12, i%2)
	}

	ctx := nn.NewCtx(false, nil)
	loss, count, err := b.LossBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if count != len(batch) {
		t.Fatalf("count = %d, want %d", count, len(batch))
	}

	// Per-sequence reference: independent B=1 forwards, per-example CE, sum.
	var want float64
	for _, ex := range batch {
		ref := perSeqClassifyLogits(t, b, nn.NewCtx(false, nil), ex)
		probs := tensor.New(1, ref.Value.Cols())
		tensor.SoftmaxRowsInto(probs, ref.Value, nil)
		want -= math.Log(probs.At(0, ex.Label))
	}
	if got := loss.Value.At(0, 0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("batched loss %v vs per-sequence sum %v", got, want)
	}
}

func TestBatchedPredictMatchesPerSequence(t *testing.T) {
	b := equivBERT(t)
	rng := tensor.NewRNG(9)
	// More examples than evalChunk so prediction crosses a chunk boundary.
	batch := make([]data.Example, evalChunk+6)
	for i := range batch {
		batch[i] = equivExample(rng, 6+rng.Intn(6), 12, 0)
	}
	preds, err := b.Predict(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, ex := range batch {
		ref := perSeqClassifyLogits(t, b, nn.NewCtx(false, nil), ex)
		if want := tensor.ArgmaxRows(ref.Value)[0]; preds[i] != want {
			t.Fatalf("example %d: batched pred %d vs per-sequence %d", i, preds[i], want)
		}
	}
}

func TestBatchedMLMLossMatchesPerSequence(t *testing.T) {
	b := equivBERT(t)
	rng := tensor.NewRNG(10)
	maskCfg := mlm.DefaultConfig(40)
	batch := make([]mlm.MaskedExample, 5)
	for i := range batch {
		ex := equivExample(rng, 8+rng.Intn(4), 12, 0)
		me, err := mlm.Mask(maskCfg, ex.IDs, rng)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = me
	}

	ctx := nn.NewCtx(false, nil)
	loss, total, err := b.MLMLossBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}

	// Per-sequence reference: B=1 encode, MLM head over every position (the
	// pre-batching layout), per-example CE scaled back to a sum.
	var want float64
	wantTotal := 0
	for _, me := range batch {
		padMask := make([]bool, len(me.Input))
		for i, id := range me.Input {
			padMask[i] = id == token.PAD
		}
		refCtx := nn.NewCtx(false, nil)
		h, err := b.encodeBatch(refCtx, [][]int{me.Input}, [][]bool{padMask})
		if err != nil {
			t.Fatal(err)
		}
		d, err := b.mlmDense.Forward(refCtx, h)
		if err != nil {
			t.Fatal(err)
		}
		d = refCtx.Tape.GELU(d)
		d, err = b.mlmLN.Forward(refCtx, d)
		if err != nil {
			t.Fatal(err)
		}
		logits, err := b.mlmOut.Forward(refCtx, d)
		if err != nil {
			t.Fatal(err)
		}
		perLoss, counted, err := refCtx.Tape.CrossEntropy(logits, me.Targets)
		if err != nil {
			t.Fatal(err)
		}
		want += perLoss.Value.At(0, 0) * float64(counted)
		wantTotal += counted
	}
	if total != wantTotal {
		t.Fatalf("masked position count %d, want %d", total, wantTotal)
	}
	if got := loss.Value.At(0, 0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("batched MLM loss %v vs per-sequence sum %v", got, want)
	}
}

func TestBatchedLossGradMatchesPerSequence(t *testing.T) {
	b := equivBERT(t)
	b.cfg.Dropout = 0
	for _, l := range b.enc.Layers {
		l.Dropout = 0
	}
	rng := tensor.NewRNG(11)
	batch := make([]data.Example, 4)
	for i := range batch {
		batch[i] = equivExample(rng, 9+rng.Intn(3), 12, i%2)
	}

	// Batched gradients.
	ctx := nn.NewCtx(true, tensor.NewRNG(1))
	loss, _, err := b.LossBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	batchedGrads := make(map[*nn.Param]*tensor.Matrix)
	if err := ctx.Tape.Backward(loss); err != nil {
		t.Fatal(err)
	}
	if err := ctx.HarvestInto(batchedGrads); err != nil {
		t.Fatal(err)
	}

	// Per-sequence gradients: independent B=1 passes, summed.
	refGrads := make(map[*nn.Param]*tensor.Matrix)
	for _, ex := range batch {
		refCtx := nn.NewCtx(true, tensor.NewRNG(1))
		logits := perSeqClassifyLogits(t, b, refCtx, ex)
		perLoss, _, err := refCtx.Tape.CrossEntropy(logits, []int{ex.Label})
		if err != nil {
			t.Fatal(err)
		}
		if err := refCtx.Tape.Backward(perLoss); err != nil {
			t.Fatal(err)
		}
		if err := refCtx.HarvestInto(refGrads); err != nil {
			t.Fatal(err)
		}
	}

	for _, p := range b.Params() {
		bg, rg := batchedGrads[p], refGrads[p]
		if bg == nil && rg == nil {
			continue
		}
		if bg == nil || rg == nil {
			t.Fatalf("param %q: gradient present in only one path", p.Name)
		}
		if !bg.AllClose(rg, 1e-9, 1e-9) {
			t.Fatalf("param %q: batched and per-sequence gradients diverge", p.Name)
		}
	}
}
