package nn

import (
	"testing"

	"clinfl/internal/tensor"
)

// TestEncoderForwardBatchMatchesPerSequence checks that a whole-minibatch
// encoder pass over the flattened (B·T)×dim layout reproduces the
// per-sequence Forward path exactly (eval mode, so dropout is inert).
func TestEncoderForwardBatchMatchesPerSequence(t *testing.T) {
	rng := tensor.NewRNG(3)
	const batch, seq, dim = 3, 6, 8
	enc, err := NewEncoder("enc", 2, dim, 2, 0, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*tensor.Matrix, batch)
	for i := range xs {
		xs[i] = rng.Normal(seq, dim, 0, 1)
	}
	padMasks := [][]bool{
		nil,
		{false, false, false, false, true, true},
		{false, false, true, true, true, true},
	}

	flat, err := tensor.Concat(xs...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(false, nil)
	batched, err := enc.ForwardBatch(ctx, ctx.Tape.Constant(flat), batch, padMasks)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < batch; i++ {
		refCtx := NewCtx(false, nil)
		ref, err := enc.ForwardBatch(refCtx, refCtx.Tape.Constant(xs[i].Clone()), 1, padMasks[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := batched.Value.SliceRows(i*seq, (i+1)*seq)
		if err != nil {
			t.Fatal(err)
		}
		if !got.AllClose(ref.Value, 1e-12, 1e-12) {
			t.Fatalf("sequence %d: batched encoder output diverges from per-sequence path", i)
		}
	}
}

// TestAttentionForwardBatchRejectsBadShapes covers the batched entry-point
// validation.
func TestAttentionForwardBatchRejectsBadShapes(t *testing.T) {
	rng := tensor.NewRNG(4)
	attn, err := NewMultiHeadSelfAttention("a", 8, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(false, nil)
	x := ctx.Tape.Constant(rng.Normal(6, 8, 0, 1))
	if _, err := attn.ForwardBatch(ctx, x, 4, nil); err == nil {
		t.Fatal("want error: rows not divisible by batch")
	}
	if _, err := attn.ForwardBatch(ctx, x, 2, [][]bool{nil}); err == nil {
		t.Fatal("want error: mask count mismatch")
	}
	if _, err := attn.ForwardBatch(ctx, x, 2, [][]bool{nil, {true}}); err == nil {
		t.Fatal("want error: mask length mismatch")
	}
	if _, err := attn.ForwardBatch(ctx, x, 0, nil); err == nil {
		t.Fatal("want error: non-positive batch")
	}
}

// TestEmbeddingForwardBatch checks flattened layout and ragged rejection.
func TestEmbeddingForwardBatch(t *testing.T) {
	rng := tensor.NewRNG(5)
	emb := NewEmbedding("e", 10, 4, rng)
	ctx := NewCtx(false, nil)
	out, err := emb.ForwardBatch(ctx, [][]int{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Value.Rows() != 4 || out.Value.Cols() != 4 {
		t.Fatalf("flattened shape %dx%d, want 4x4", out.Value.Rows(), out.Value.Cols())
	}
	for i, id := range []int{1, 2, 3, 4} {
		want := emb.Table.W.Row(id)
		for j, v := range out.Value.Row(i) {
			if v != want[j] {
				t.Fatalf("row %d does not match table row %d", i, id)
			}
		}
	}
	if _, err := emb.ForwardBatch(ctx, [][]int{{1, 2}, {3}}); err == nil {
		t.Fatal("want error: ragged batch")
	}
	if _, err := emb.ForwardBatch(ctx, nil); err == nil {
		t.Fatal("want error: empty batch")
	}
}
