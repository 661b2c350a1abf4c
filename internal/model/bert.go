package model

import (
	"errors"
	"fmt"
	"sync"

	"clinfl/internal/autograd"
	"clinfl/internal/data"
	"clinfl/internal/mlm"
	"clinfl/internal/nn"
	"clinfl/internal/tensor"
	"clinfl/internal/token"
)

// BERTConfig parameterizes a BERT-style encoder (Table II rows "BERT" and
// "BERT-mini").
type BERTConfig struct {
	Name       string
	VocabSize  int
	MaxLen     int
	Dim        int
	Layers     int
	Heads      int // each head is ceil(Dim/Heads) wide; the FFN is 4*Dim
	Dropout    float64
	NumClasses int
}

// Validate checks the configuration.
func (c BERTConfig) Validate() error {
	if c.VocabSize <= token.NumSpecial {
		return fmt.Errorf("model: bert vocab %d too small", c.VocabSize)
	}
	if c.MaxLen < 3 || c.Dim <= 0 || c.Layers <= 0 || c.Heads <= 0 {
		return errors.New("model: bert geometry must be positive")
	}
	if c.NumClasses < 2 {
		return fmt.Errorf("model: bert needs >=2 classes, got %d", c.NumClasses)
	}
	return nil
}

// BERT is a bidirectional transformer encoder with MLM and classification
// heads. Forward passes are batched: a minibatch of B equal-length
// sequences runs as one flattened (B·T)×dim computation on a single tape,
// using block-aware attention ops so scores never cross sequence
// boundaries. Ragged batches are grouped by length, one batched forward per
// group. A trainer step runs its whole minibatch this way.
type BERT struct {
	cfg BERTConfig

	tokEmb *nn.Embedding
	posEmb *nn.Embedding
	embLN  *nn.LayerNorm
	enc    *nn.Encoder

	// MLM head: dense + GELU + LN + vocab projection.
	mlmDense *nn.Linear
	mlmLN    *nn.LayerNorm
	mlmOut   *nn.Linear

	// Classification head: tanh pooler over [CLS] + output projection.
	pooler *nn.Linear
	clsOut *nn.Linear

	params []*nn.Param

	// evalMu/evalFree recycle arena-backed eval contexts across Predict
	// calls, so steady-state inference reuses every tape node
	// and activation matrix instead of rebuilding the graph on the heap.
	// A plain free list rather than sync.Pool: the GC empties a sync.Pool
	// on every cycle, and training rounds GC often enough that eval ctxs
	// (multi-MB arenas) were freed and rebuilt each round — part of the
	// -cpu 2/4 bytes/op regression. The list is bounded by the peak number
	// of concurrent eval calls on this model.
	evalMu   sync.Mutex
	evalFree []*nn.Ctx
}

var (
	_ Classifier = (*BERT)(nil)
	_ Pretrainer = (*BERT)(nil)
)

// NewBERT builds a BERT model with deterministic seed-derived init.
func NewBERT(cfg BERTConfig, seed int64) (*BERT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed)
	name := cfg.Name
	if name == "" {
		name = "bert"
	}
	enc, err := nn.NewEncoder(name+".encoder", cfg.Layers, cfg.Dim, cfg.Heads, 0, cfg.Dropout, rng)
	if err != nil {
		return nil, fmt.Errorf("model: %s encoder: %w", name, err)
	}
	b := &BERT{
		cfg:      cfg,
		tokEmb:   nn.NewEmbedding(name+".tok_emb", cfg.VocabSize, cfg.Dim, rng),
		posEmb:   nn.NewEmbedding(name+".pos_emb", cfg.MaxLen, cfg.Dim, rng),
		embLN:    nn.NewLayerNorm(name+".emb_ln", cfg.Dim),
		enc:      enc,
		mlmDense: nn.NewLinear(name+".mlm_dense", cfg.Dim, cfg.Dim, rng),
		mlmLN:    nn.NewLayerNorm(name+".mlm_ln", cfg.Dim),
		mlmOut:   nn.NewLinear(name+".mlm_out", cfg.Dim, cfg.VocabSize, rng),
		pooler:   nn.NewLinear(name+".pooler", cfg.Dim, cfg.Dim, rng),
		clsOut:   nn.NewLinear(name+".cls_out", cfg.Dim, cfg.NumClasses, rng),
	}
	b.params, err = nn.CollectParams(b.tokEmb, b.posEmb, b.embLN, b.enc, b.mlmDense, b.mlmLN, b.mlmOut, b.pooler, b.clsOut)
	if err != nil {
		return nil, fmt.Errorf("model: %s params: %w", name, err)
	}
	return b, nil
}

// Name implements Classifier.
func (b *BERT) Name() string { return b.cfg.Name }

// Config returns the model configuration.
func (b *BERT) Config() BERTConfig { return b.cfg }

// Params implements Classifier.
func (b *BERT) Params() []*nn.Param { return b.params }

// lengthGroups partitions batch indices by sequence length, preserving
// order within each group. The batched forward requires uniform T, so a
// ragged batch runs one batched pass per length group; the common case (a
// tokenizer padding to a fixed MaxLen) is a single group.
func lengthGroups(lens []int) [][]int {
	byLen := make(map[int][]int)
	var order []int
	for i, l := range lens {
		if _, ok := byLen[l]; !ok {
			order = append(order, l)
		}
		byLen[l] = append(byLen[l], i)
	}
	out := make([][]int, 0, len(order))
	for _, l := range order {
		out = append(out, byLen[l])
	}
	return out
}

// encodeBatch runs embeddings + encoder over a minibatch of equal-length
// sequences as one flattened (B·T)×dim computation; sequence b occupies
// rows [b·T, (b+1)·T) of the result.
func (b *BERT) encodeBatch(ctx *nn.Ctx, idsBatch [][]int, padMasks [][]bool) (*autograd.Node, error) {
	if len(idsBatch) == 0 {
		return nil, errors.New("model: empty batch")
	}
	seq := len(idsBatch[0])
	if seq > b.cfg.MaxLen {
		return nil, fmt.Errorf("model: %s sequence length %d exceeds max %d", b.cfg.Name, seq, b.cfg.MaxLen)
	}
	tok, err := b.tokEmb.ForwardBatch(ctx, idsBatch)
	if err != nil {
		return nil, err
	}
	positions := make([]int, len(idsBatch)*seq)
	for i := range positions {
		positions[i] = i % seq
	}
	pos, err := b.posEmb.Forward(ctx, positions)
	if err != nil {
		return nil, err
	}
	x, err := ctx.Tape.Add(tok, pos)
	if err != nil {
		return nil, err
	}
	x, err = b.embLN.Forward(ctx, x)
	if err != nil {
		return nil, err
	}
	x = ctx.Tape.Dropout(x, b.cfg.Dropout, ctx.RNG, ctx.Training)
	return b.enc.ForwardBatch(ctx, x, len(idsBatch), padMasks)
}

// classifyLogitsBatch returns B×NumClasses logits for a minibatch of
// equal-length sequences: one batched encode, a gather of the [CLS] rows
// out of the flattened layout, then the pooler and output projection over
// the B×dim matrix.
func (b *BERT) classifyLogitsBatch(ctx *nn.Ctx, idsBatch [][]int, padMasks [][]bool) (*autograd.Node, error) {
	h, err := b.encodeBatch(ctx, idsBatch, padMasks)
	if err != nil {
		return nil, err
	}
	seq := len(idsBatch[0])
	clsRows := make([]int, len(idsBatch))
	for i := range clsRows {
		clsRows[i] = i * seq
	}
	cls, err := ctx.Tape.GatherRows(h, clsRows)
	if err != nil {
		return nil, err
	}
	p, err := b.pooler.Forward(ctx, cls)
	if err != nil {
		return nil, err
	}
	p = ctx.Tape.Tanh(p)
	return b.clsOut.Forward(ctx, p)
}

// groupInputs gathers the ids/masks/labels of one length group.
func groupInputs(batch []data.Example, idx []int) (idsBatch [][]int, padMasks [][]bool, labels []int) {
	idsBatch = make([][]int, len(idx))
	padMasks = make([][]bool, len(idx))
	labels = make([]int, len(idx))
	for i, j := range idx {
		idsBatch[i] = batch[j].IDs
		padMasks[i] = batch[j].PadMask
		labels[i] = batch[j].Label
	}
	return idsBatch, padMasks, labels
}

// LossBatch implements Classifier: summed cross-entropy over the batch,
// computed with one batched forward per length group.
func (b *BERT) LossBatch(ctx *nn.Ctx, batch []data.Example) (*autograd.Node, int, error) {
	if len(batch) == 0 {
		return nil, 0, errors.New("model: empty batch")
	}
	lens := make([]int, len(batch))
	for i, ex := range batch {
		lens[i] = len(ex.IDs)
	}
	var losses []*autograd.Node
	for _, idx := range lengthGroups(lens) {
		idsBatch, padMasks, labels := groupInputs(batch, idx)
		logits, err := b.classifyLogitsBatch(ctx, idsBatch, padMasks)
		if err != nil {
			return nil, 0, err
		}
		loss, counted, err := ctx.Tape.CrossEntropy(logits, labels)
		if err != nil {
			return nil, 0, err
		}
		// CrossEntropy returns the mean; rescale to a sum so groups (and
		// batches) aggregate with equal per-example weight.
		losses = append(losses, ctx.Tape.Scale(float64(counted), loss))
	}
	sum, err := ctx.Tape.SumScalars(losses...)
	if err != nil {
		return nil, 0, err
	}
	return sum, len(batch), nil
}

// Predict implements Classifier: argmax over one batched eval-mode forward
// per length group.
func (b *BERT) Predict(batch []data.Example) ([]int, error) {
	out := make([]int, len(batch))
	err := b.evalLogits(batch, func(idx []int, logits *tensor.Matrix) {
		am := tensor.ArgmaxRows(logits)
		for i, j := range idx {
			out[j] = am[i]
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// getEvalCtx pops a recycled eval context off the persistent free list, or
// builds a fresh arena-backed one on first use / under concurrency.
func (b *BERT) getEvalCtx() *nn.Ctx {
	b.evalMu.Lock()
	var ctx *nn.Ctx
	if k := len(b.evalFree); k > 0 {
		ctx = b.evalFree[k-1]
		b.evalFree = b.evalFree[:k-1]
	}
	b.evalMu.Unlock()
	if ctx == nil {
		ctx = nn.NewArenaCtx(false, nil)
	}
	return ctx
}

// putEvalCtx returns an eval context to the free list for the next call.
func (b *BERT) putEvalCtx(ctx *nn.Ctx) {
	b.evalMu.Lock()
	b.evalFree = append(b.evalFree, ctx)
	b.evalMu.Unlock()
}

// evalChunk caps how many sequences one eval-mode batched forward
// processes, so Predict over an arbitrarily large set (whole validation
// shards) keeps tape memory bounded instead of building one giant
// (N·T)×dim graph.
const evalChunk = 64

// evalLogits runs the batched classification forward in eval mode and hands
// each chunk's logits (chunk-row order) to visit. Batches are grouped by
// sequence length, then each group is processed in evalChunk slices, all on
// one pooled arena-backed context that is reset (not reallocated) per
// chunk. visit must copy out anything it needs: the logits matrix lives in
// the context's arena and is recycled by the next chunk.
func (b *BERT) evalLogits(batch []data.Example, visit func(idx []int, logits *tensor.Matrix)) error {
	if len(batch) == 0 {
		return nil
	}
	ctx := b.getEvalCtx()
	defer b.putEvalCtx(ctx)
	lens := make([]int, len(batch))
	for i, ex := range batch {
		lens[i] = len(ex.IDs)
	}
	for _, idx := range lengthGroups(lens) {
		for lo := 0; lo < len(idx); lo += evalChunk {
			hi := lo + evalChunk
			if hi > len(idx) {
				hi = len(idx)
			}
			ctx.Reset(false, 0)
			idsBatch, padMasks, _ := groupInputs(batch, idx[lo:hi])
			logits, err := b.classifyLogitsBatch(ctx, idsBatch, padMasks)
			if err != nil {
				return err
			}
			visit(idx[lo:hi], logits.Value)
		}
	}
	return nil
}

// MLMLossBatch implements Pretrainer: summed masked-LM cross-entropy over
// all predicted positions in the batch. Each length group runs one batched
// encode; the MLM head (dense+GELU+LN+vocab projection) then runs only over
// the masked positions, gathered out of the flattened layout, so the large
// vocab projection touches ~15% of rows instead of all of them.
func (b *BERT) MLMLossBatch(ctx *nn.Ctx, batch []mlm.MaskedExample) (*autograd.Node, int, error) {
	if len(batch) == 0 {
		return nil, 0, errors.New("model: empty MLM batch")
	}
	lens := make([]int, len(batch))
	for i, me := range batch {
		lens[i] = len(me.Input)
	}
	var losses []*autograd.Node
	total := 0
	for _, idx := range lengthGroups(lens) {
		seq := lens[idx[0]]
		idsBatch := make([][]int, len(idx))
		padMasks := make([][]bool, len(idx))
		var maskedRows, maskedTargets []int
		for i, j := range idx {
			me := batch[j]
			if len(me.Targets) != seq {
				return nil, 0, fmt.Errorf("model: MLM example %d has %d targets for %d inputs",
					j, len(me.Targets), seq)
			}
			idsBatch[i] = me.Input
			padMask := make([]bool, seq)
			for p, id := range me.Input {
				padMask[p] = id == token.PAD
			}
			padMasks[i] = padMask
			for p, tgt := range me.Targets {
				if tgt != autograd.IgnoreIndex {
					maskedRows = append(maskedRows, i*seq+p)
					maskedTargets = append(maskedTargets, tgt)
				}
			}
		}
		if len(maskedRows) == 0 {
			continue
		}
		h, err := b.encodeBatch(ctx, idsBatch, padMasks)
		if err != nil {
			return nil, 0, err
		}
		h, err = ctx.Tape.GatherRows(h, maskedRows)
		if err != nil {
			return nil, 0, err
		}
		d, err := b.mlmDense.ForwardGELU(ctx, h)
		if err != nil {
			return nil, 0, err
		}
		d, err = b.mlmLN.Forward(ctx, d)
		if err != nil {
			return nil, 0, err
		}
		logits, err := b.mlmOut.Forward(ctx, d)
		if err != nil {
			return nil, 0, err
		}
		loss, counted, err := ctx.Tape.CrossEntropy(logits, maskedTargets)
		if err != nil {
			return nil, 0, err
		}
		total += counted
		losses = append(losses, ctx.Tape.Scale(float64(counted), loss))
	}
	if total == 0 {
		return nil, 0, errors.New("model: MLM batch has no masked positions")
	}
	sum, err := ctx.Tape.SumScalars(losses...)
	if err != nil {
		return nil, 0, err
	}
	return sum, total, nil
}
