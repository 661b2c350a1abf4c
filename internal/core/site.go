package core

import (
	"fmt"
	"time"

	"clinfl/internal/data"
	"clinfl/internal/fl"
	"clinfl/internal/mlm"
	"clinfl/internal/model"
)

// The site recipe (Fig. 1): every site of a run trains the same Table II
// model under the same local configuration, and site i differs from its
// peers only in its shard and its training seed. The pipeline, the
// experiments and the networked binaries build their models, shards and
// sites here, so they all train the same federation.

// NewModel builds cfg's Table II classifier over a vocabulary of vocabSize
// tokens: two output classes (ADR or not), cfg.MaxLen positions and
// initial weights drawn from cfg.Seed. Every site, validation model and
// initial global model of a run comes from here, so their shapes and
// starting weights agree.
func NewModel(cfg Config, vocabSize int) (model.Classifier, error) {
	spec, err := model.SpecByName(cfg.ModelName)
	if err != nil {
		return nil, err
	}
	return model.New(spec, vocabSize, cfg.MaxLen, 2, cfg.Seed)
}

// Shards splits train across cfg.Clients sites: equal shares when
// cfg.Partition is balanced, the paper's ratio vector when it is
// imbalanced.
func Shards(cfg Config, train data.Dataset) ([]data.Dataset, error) {
	switch cfg.Partition {
	case PartitionBalanced:
		return data.PartitionBalanced(train, cfg.Clients)
	case PartitionImbalanced:
		return data.PartitionRatios(train, data.PaperImbalancedRatios)
	default:
		return nil, fmt.Errorf("core: unknown partition %q", cfg.Partition)
	}
}

// NewSite builds site i of cfg's fine-tuning federation: a fresh NewModel
// classifier, named name, that trains shard with cfg's local epochs,
// learning rate, batch size and clip norm under the site seed
// cfg.Seed + 37·i. hook, if non-nil, observes each local epoch; proxMu is
// the site's FedProx strength (0 trains plain FedAvg local epochs).
func NewSite(cfg Config, i int, name string, shard data.Dataset, vocabSize int,
	hook func(client string, round, epoch int, d time.Duration), proxMu float64) (*fl.ClassifierExecutor, error) {
	mdl, err := NewModel(cfg, vocabSize)
	if err != nil {
		return nil, err
	}
	return fl.NewClassifierExecutor(name, mdl, shard, nil, siteConfig(cfg, i, hook, proxMu))
}

// newMLMSite builds site i of cfg's pretraining federation: a fresh BERT
// that pretrains on shard with the masked-language-model objective under
// the same local settings and site seed as NewSite.
func newMLMSite(cfg Config, i int, name string, shard [][]int, vocabSize int, maskCfg mlm.Config,
	hook func(client string, round, epoch int, d time.Duration)) (*fl.MLMExecutor, error) {
	mdl, err := newPretrainer(cfg, vocabSize)
	if err != nil {
		return nil, err
	}
	return fl.NewMLMExecutor(name, mdl, mdl.Params(), shard, maskCfg, siteConfig(cfg, i, hook, 0))
}

// newPretrainer builds cfg's model with its MLM head; only the BERT family
// has one.
func newPretrainer(cfg Config, vocabSize int) (*model.BERT, error) {
	mdl, err := NewModel(cfg, vocabSize)
	if err != nil {
		return nil, err
	}
	b, ok := mdl.(*model.BERT)
	if !ok {
		return nil, fmt.Errorf("core: %s is not a BERT-family model", cfg.ModelName)
	}
	return b, nil
}

// siteConfig is site i's local training: cfg's epochs, learning rate,
// batch size and clip norm, with the site seed cfg.Seed + 37·i.
func siteConfig(cfg Config, i int, hook func(client string, round, epoch int, d time.Duration), proxMu float64) fl.LocalConfig {
	return fl.LocalConfig{
		Epochs:    cfg.LocalEpochs,
		LR:        cfg.LR,
		BatchSize: cfg.BatchSize,
		ClipNorm:  cfg.ClipNorm,
		ProxMu:    proxMu,
		Seed:      cfg.Seed + int64(i)*37,
		EpochHook: hook,
	}
}
