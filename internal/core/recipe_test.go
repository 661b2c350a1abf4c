package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"clinfl/internal/data"
	"clinfl/internal/ehr"
	"clinfl/internal/token"
)

// recipeDigest hashes a vocabulary in id order, then each example set in
// order: its length, then every example's ids, pad mask and label.
func recipeDigest(vocab *token.Vocab, sets ...data.Dataset) string {
	h := sha256.New()
	hashWords(h, vocab)
	for _, set := range sets {
		putInt(h, len(set))
		for _, e := range set {
			hashIDs(h, e.IDs)
			for _, pad := range e.PadMask {
				if pad {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
			putInt(h, e.Label)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// corpusDigest is recipeDigest for pretraining id sequences.
func corpusDigest(vocab *token.Vocab, sets ...[][]int) string {
	h := sha256.New()
	hashWords(h, vocab)
	for _, set := range sets {
		putInt(h, len(set))
		for _, ids := range set {
			hashIDs(h, ids)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashWords(h hash.Hash, vocab *token.Vocab) {
	words := vocab.Words()
	putInt(h, len(words))
	for _, w := range words {
		putInt(h, len(w))
		h.Write([]byte(w))
	}
}

func hashIDs(h hash.Hash, ids []int) {
	putInt(h, len(ids))
	for _, id := range ids {
		putInt(h, id)
	}
}

func putInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// TestRecipePinned pins the bytes of the data-preparation recipe —
// cohort → vocabulary → tokenizer → encode → shuffle, and the pretraining
// corpus path — at the configurations the pipeline, the networked client
// and the privacy example run. The digests were computed before the
// recipe's copies were folded into this package; a change to any of them
// retrains every model on different inputs.
func TestRecipePinned(t *testing.T) {
	const (
		finetuneWant = "f735b466389660ae308b145e077cf102a4cb3673544dc59a11ed6c7401859cc3"
		flclientWant = "e829d6e399bcde57e23ce88047cc9a18fb1e6bb66195b5b14833832bcc2ae3fe"
		privacyWant  = "29de0001a2f645017c0c771da6d7b18dbb53a5a29e8d69e360d351142c3593d6"
		pretrainWant = "26ad5b1e8d57b0f33788b24f5ec4bf889f7d8803e766656d3bdccabaafa7297c"
	)

	t.Run("finetune", func(t *testing.T) {
		train, valid, vocab, err := PrepareFinetune(tinyConfig(TaskFinetune, ModeFederated, "lstm"))
		if err != nil {
			t.Fatal(err)
		}
		if got := recipeDigest(vocab, train, valid); got != finetuneWant {
			t.Errorf("digest %s, want %s", got, finetuneWant)
		}
	})

	// flclient's defaults: -patients 8638 -seed 1 -maxlen 24.
	t.Run("flclient", func(t *testing.T) {
		ecfg := ehr.DefaultConfig()
		ecfg.Seed = 1
		ecfg.Patients = 8638
		ecfg.CorpusSentences = 1
		all, vocab, err := EncodeCohort(ecfg, 24, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := recipeDigest(vocab, all); got != flclientWant {
			t.Errorf("digest %s, want %s", got, flclientWant)
		}
	})

	// examples/privacy: 400 patients, max-len 16, shuffle stream 17.
	t.Run("privacy", func(t *testing.T) {
		ecfg := ehr.DefaultConfig()
		ecfg.Patients = 400
		ecfg.CorpusSentences = 1
		all, vocab, err := EncodeCohort(ecfg, 16, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := recipeDigest(vocab, all); got != privacyWant {
			t.Errorf("digest %s, want %s", got, privacyWant)
		}
	})

	t.Run("pretrain", func(t *testing.T) {
		p, err := NewPipeline(tinyConfig(TaskPretrain, ModeFederated, "bert-mini"))
		if err != nil {
			t.Fatal(err)
		}
		train, valid, vocab, err := p.preparePretrain()
		if err != nil {
			t.Fatal(err)
		}
		if got := corpusDigest(vocab, train, valid); got != pretrainWant {
			t.Errorf("digest %s, want %s", got, pretrainWant)
		}
	})
}
