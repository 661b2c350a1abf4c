package model

import (
	"testing"

	"clinfl/internal/data"
	"clinfl/internal/mlm"
	"clinfl/internal/opt"
	"clinfl/internal/tensor"
	"clinfl/internal/token"
	"clinfl/internal/train"
)

// toyDataset builds a binary task where the label is 1 iff token 7 appears
// before token 8 (order-sensitive, solvable by both model families).
func toyDataset(n, seqLen, vocab int, seed int64) data.Dataset {
	rng := tensor.NewRNG(seed)
	ds := make(data.Dataset, n)
	for i := range ds {
		ids := make([]int, seqLen)
		padMask := make([]bool, seqLen)
		ids[0] = token.CLS
		for j := 1; j < seqLen-1; j++ {
			ids[j] = token.NumSpecial + rng.Intn(vocab-token.NumSpecial)
		}
		ids[seqLen-1] = token.SEP
		// Plant the ordered pair.
		a, b := 1+rng.Intn(seqLen-3), 0
		for {
			b = 1 + rng.Intn(seqLen-3)
			if b != a {
				break
			}
		}
		label := 0
		if rng.Float64() < 0.5 {
			label = 1
		}
		first, second := 8, 7
		if label == 1 {
			first, second = 7, 8
		}
		if a > b {
			a, b = b, a
		}
		ids[a], ids[b] = first, second
		ds[i] = data.Example{IDs: ids, PadMask: padMask, Label: label}
	}
	return ds
}

func TestLSTMLearnsOrderRule(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const vocab, seqLen = 24, 10
	ds := toyDataset(300, seqLen, vocab, 1)
	m, err := NewLSTMClassifier(LSTMConfig{
		Name: "lstm-test", VocabSize: vocab, Dim: 24, Hidden: 24, Layers: 1, NumClasses: 2,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	optimizer := opt.NewAdam(5e-3)
	tr := train.NewTrainer(m.Params(), m.LossBatch, optimizer, train.Config{BatchSize: 32, ClipNorm: 1})
	for e := 0; e < 12; e++ {
		if _, err := tr.Epoch([]data.Example(ds), int64(e+1)); err != nil {
			t.Fatal(err)
		}
	}
	preds, err := m.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	hit := 0
	for i, p := range preds {
		if p == ds[i].Label {
			hit++
		}
	}
	acc := float64(hit) / float64(len(ds))
	if acc < 0.9 {
		t.Fatalf("LSTM train accuracy %.3f < 0.9 — model failed to learn order rule", acc)
	}
}

func TestBERTLearnsOrderRule(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const vocab, seqLen = 24, 10
	ds := toyDataset(200, seqLen, vocab, 3)
	m, err := NewBERT(BERTConfig{
		Name: "bert-test", VocabSize: vocab, MaxLen: seqLen, Dim: 32, Layers: 2,
		Heads: 2, NumClasses: 2, Dropout: 0,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	optimizer := opt.NewAdam(3e-3)
	tr := train.NewTrainer(m.Params(), m.LossBatch, optimizer, train.Config{BatchSize: 32, ClipNorm: 1})
	for e := 0; e < 15; e++ {
		if _, err := tr.Epoch([]data.Example(ds), int64(e+1)); err != nil {
			t.Fatal(err)
		}
	}
	preds, err := m.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	hit := 0
	for i, p := range preds {
		if p == ds[i].Label {
			hit++
		}
	}
	acc := float64(hit) / float64(len(ds))
	if acc < 0.85 {
		t.Fatalf("BERT train accuracy %.3f < 0.85 — model failed to learn order rule", acc)
	}
}

func TestBERTMLMLossDecreases(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const vocab, seqLen = 24, 10
	m, err := NewBERT(BERTConfig{
		Name: "bert-mlm-test", VocabSize: vocab, MaxLen: seqLen, Dim: 32, Layers: 2,
		Heads: 2, NumClasses: 2, Dropout: 0,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Corpus with fixed bigram structure: token x is always followed by x+1.
	rng := tensor.NewRNG(6)
	mcfg := mlm.DefaultConfig(vocab)
	var examples []mlm.MaskedExample
	for i := 0; i < 200; i++ {
		ids := make([]int, seqLen)
		ids[0] = token.CLS
		start := token.NumSpecial + rng.Intn(8)
		for j := 1; j < seqLen-1; j++ {
			ids[j] = token.NumSpecial + (start-token.NumSpecial+j)%(vocab-token.NumSpecial)
		}
		ids[seqLen-1] = token.SEP
		me, err := mlm.Mask(mcfg, ids, rng)
		if err != nil {
			t.Fatal(err)
		}
		examples = append(examples, me)
	}
	first, err := train.EvalLoss(examples, m.MLMLossBatch, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	optimizer := opt.NewAdam(3e-3)
	tr := train.NewTrainer(m.Params(), m.MLMLossBatch, optimizer, train.Config{BatchSize: 32, ClipNorm: 1})
	for e := 0; e < 8; e++ {
		if _, err := tr.Epoch(examples, int64(e+1)); err != nil {
			t.Fatal(err)
		}
	}
	last, err := train.EvalLoss(examples, m.MLMLossBatch, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if last > first*0.5 {
		t.Fatalf("MLM loss did not halve: %.3f -> %.3f", first, last)
	}
}

func TestSpecByName(t *testing.T) {
	for _, name := range []string{"bert", "bert-mini", "lstm"} {
		spec, err := SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Kind != name {
			t.Fatalf("spec kind %q != %q", spec.Kind, name)
		}
	}
	if _, err := SpecByName("gpt"); err == nil {
		t.Fatal("want error for unknown model")
	}
}

func TestTableIIGeometry(t *testing.T) {
	cases := []struct {
		spec           Spec
		hidden, layers int
		heads          int
	}{
		{SpecBERT, 128, 12, 6},
		{SpecBERTMini, 50, 6, 2},
		{SpecLSTM, 128, 3, 0},
	}
	for _, c := range cases {
		if c.spec.Hidden != c.hidden || c.spec.Layers != c.layers || c.spec.Heads != c.heads {
			t.Fatalf("%s geometry %+v does not match Table II", c.spec.Kind, c.spec)
		}
	}
}

func TestNewModelDeterminism(t *testing.T) {
	a, err := New(SpecLSTM.Scaled(8), 32, 12, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(SpecLSTM.Scaled(8), 32, 12, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatal("param count mismatch")
	}
	for i := range pa {
		if !pa[i].W.Equal(pb[i].W) {
			t.Fatalf("param %s differs across same-seed construction", pa[i].Name)
		}
	}
}

func TestBERTRejectsBadConfig(t *testing.T) {
	if _, err := NewBERT(BERTConfig{VocabSize: 2, MaxLen: 8, Dim: 8, Layers: 1, Heads: 1, NumClasses: 2}, 1); err == nil {
		t.Fatal("want vocab error")
	}
	if _, err := NewBERT(BERTConfig{VocabSize: 100, MaxLen: 8, Dim: 8, Layers: 1, Heads: 1, NumClasses: 1}, 1); err == nil {
		t.Fatal("want classes error")
	}
}

func TestLSTMRejectsRaggedBatch(t *testing.T) {
	m, err := NewLSTMClassifier(LSTMConfig{Name: "l", VocabSize: 32, Dim: 8, Hidden: 8, Layers: 1, NumClasses: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	batch := data.Dataset{
		{IDs: []int{token.CLS, 6, token.SEP}, PadMask: []bool{false, false, false}},
		{IDs: []int{token.CLS, 6}, PadMask: []bool{false, false}},
	}
	if _, err := m.Predict(batch); err == nil {
		t.Fatal("want ragged batch error")
	}
}
