package fl

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"clinfl/internal/fl/durable"
	"clinfl/internal/fl/hier"
	"clinfl/internal/tensor"
)

// TierConfig enables hierarchical streaming aggregation (ROADMAP item 1):
// client updates fold into O(model) partial aggregates at tier nodes as
// they arrive, and only merged partials flow upward, so the root never
// buffers per-client weight maps. Aggregation stays exact — hier.Partial
// accumulates in floating-point expansions and rounds once at finalize —
// so any tier shape produces bit-identical global weights (pinned in
// fltest). Nil TierConfig keeps the legacy flat path bit-for-bit
// unchanged.
type TierConfig struct {
	// Aggregators lists the fan-in widths of the aggregation tiers
	// between the sampled clients and the root, leaf-most first, for the
	// in-process Controller: {64, 8} folds the sampled clients into 64
	// edge partials, merges those into 8 regional partials, and merges
	// the regionals at the root — each hop's encoded-partial bytes are
	// accounted in RoundRecord.TierBytesUp. The networked Server ignores
	// it (its tier shape is the deployed hier.Edge topology). Nil or
	// empty defaults to a single 8-wide edge tier.
	Aggregators []int
}

// widths resolves the configured tier fan-ins.
func (t *TierConfig) widths() []int {
	if t == nil || len(t.Aggregators) == 0 {
		return []int{8}
	}
	return t.Aggregators
}

// validateTier rejects configuration combinations the tier path does not
// compose with. These are config errors, not silent downgrades: each of
// these features assumes the root sees raw per-client updates.
func validateTier(t *TierConfig, agg Aggregator, async AsyncAggregator,
	filters []Filter, wal *durable.WAL, rp *ReconcilePolicy) error {
	if t == nil {
		return nil
	}
	for _, w := range t.Aggregators {
		if w <= 0 {
			return fmt.Errorf("fl: tier aggregator width %d must be positive", w)
		}
	}
	switch {
	case async != nil:
		return errors.New("fl: tier aggregation is incompatible with AsyncAggregator (stragglers are dropped at tier nodes, not merged late)")
	case len(filters) > 0:
		return errors.New("fl: tier aggregation is incompatible with Filters (per-client filters need raw updates at the root)")
	case wal != nil:
		return errors.New("fl: tier aggregation is incompatible with WAL durability (update records log raw weights)")
	case rp != nil:
		return errors.New("fl: tier aggregation is incompatible with Reconcile (per-client requeue needs root-visible clients)")
	}
	if agg != nil {
		if _, ok := agg.(FedAvg); !ok {
			return errors.New("fl: tier aggregation implies exact streaming FedAvg; custom Aggregator not supported")
		}
	}
	return nil
}

// TierAggregator is the root-side Aggregator a tier-enabled Server
// installs: updates from hier.Edge nodes carry decoded partials and are
// merged; plain client updates (a mixed fleet is fine) are folded
// directly. The result is exact FedAvg over every leaf, identical to
// what a flat server would produce. The exported fields snapshot the
// last Aggregate call's tier accounting for the round record.
type TierAggregator struct {
	// Partials counts the lower-tier partials merged.
	Partials int
	// TierBytes is the encoded bytes those partials arrived as.
	TierBytes int64
	// ResidentBytes is the root's merged aggregation state at finalize —
	// the O(model) quantity, independent of leaf count.
	ResidentBytes int64
}

// Name implements Aggregator.
func (a *TierAggregator) Name() string { return "hier-fedavg" }

// Aggregate implements Aggregator.
func (a *TierAggregator) Aggregate(updates []*ClientUpdate) (map[string]*tensor.Matrix, error) {
	root := hier.NewPartial()
	a.Partials, a.TierBytes = 0, 0
	for _, u := range updates {
		if u.hierPartial != nil {
			if err := root.Merge(u.hierPartial); err != nil {
				return nil, fmt.Errorf("fl: merge partial from %q: %w", u.ClientName, err)
			}
			a.Partials++
			a.TierBytes += int64(u.PayloadBytes)
			continue
		}
		err := root.Fold(hier.Update{
			ClientName: u.ClientName, Weights: u.Weights, NumSamples: u.NumSamples,
			TrainLoss: u.TrainLoss, UpBytes: u.PayloadBytes, DownBytes: u.DownBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("fl: fold update from %q: %w", u.ClientName, err)
		}
	}
	a.ResidentBytes = root.ResidentBytes()
	return root.Finalize()
}

// tierSink is the in-process controller's streaming aggregation: each
// accepted update is folded immediately into its edge shard's partial (and
// the raw weights dropped — the O(model) property), shard partials merge up
// the configured tier widths with per-hop byte accounting, and the root
// finalizes the exact FedAvg. The gather around it is the shared round
// engine's; stragglers past the deadline are dropped when they surface,
// because validateTier admits no AsyncAggregator.
type tierSink struct {
	widths []int
	// scratch recycles the edge-shard partials across rounds (Reset keeps
	// each one's O(model) slabs warm), so a round's aggregation state is
	// allocated once per run, not once per round.
	scratch []*hier.Partial
	shardOf map[string]int
	// shards holds this round's partials; nil means no update reached the
	// shard yet.
	shards []*hier.Partial
}

// open lays out the round's deterministic shard map: contiguous blocks of
// the name-sorted sample, so the tier shape is a pure function of the
// sampled set.
func (t *tierSink) open(sampled []string) {
	names := append([]string(nil), sampled...)
	sort.Strings(names)
	edges := t.widths[0]
	if edges > len(names) {
		edges = len(names)
	}
	t.shardOf = make(map[string]int, len(names))
	for i, n := range names {
		t.shardOf[n] = i * edges / len(names)
	}
	for len(t.scratch) < edges {
		t.scratch = append(t.scratch, hier.NewPartial())
	}
	t.shards = make([]*hier.Partial, edges)
}

// accept folds one update into its shard. A slot is taken from the
// run-long scratch the first time its shard folds; a reset partial
// accumulates bit-identically to a fresh one. A malformed update is a
// per-client failure at its edge, not a federation abort: the shard
// rejects it and the round proceeds with everyone else.
func (t *tierSink) accept(u *ClientUpdate) error {
	s := t.shardOf[u.ClientName]
	if t.shards[s] == nil {
		t.shards[s] = t.scratch[s]
		t.shards[s].Reset()
	}
	return t.shards[s].Fold(hier.Update{
		ClientName: u.ClientName, Weights: u.Weights, NumSamples: u.NumSamples,
		TrainLoss: u.TrainLoss, UpBytes: u.PayloadBytes, DownBytes: u.DownBytes,
	})
}

// finalize merges up the tiers. Each hop accounts the exact wire size the
// level's partials would encode to — what an edge would have sent — without
// serializing them (EncodedSize is pinned against EncodePartial); merge
// order is index order, and exactness makes it irrelevant to the result
// anyway.
func (t *tierSink) finalize(round int, _ map[string]*tensor.Matrix, _ []*ClientUpdate, rec *RoundRecord) (map[string]*tensor.Matrix, error) {
	level := make([]*hier.Partial, 0, len(t.shards))
	for _, p := range t.shards {
		if p != nil {
			level = append(level, p)
		}
	}
	climb := func(into []*hier.Partial, groupOf func(i int) int) error {
		for i, p := range level {
			size, err := p.EncodedSize()
			if err != nil {
				return fmt.Errorf("fl: round %d: encode partial: %w", round, err)
			}
			rec.TierPartials++
			rec.TierBytesUp += size
			g := groupOf(i)
			if into[g] == nil {
				// The group's first partial is adopted, not copied: the lower
				// level is dead after the climb, and merging is exact, so
				// "merge into an adopted sibling" and "merge into a fresh
				// empty partial" finalize bit-identically.
				into[g] = p
				into[g].AddTierBytes(size)
				continue
			}
			into[g].AddTierBytes(size)
			if err := into[g].Merge(p); err != nil {
				return fmt.Errorf("fl: round %d: merge partial: %w", round, err)
			}
		}
		return nil
	}
	for _, width := range t.widths[1:] {
		if width > len(level) {
			width = len(level)
		}
		next := make([]*hier.Partial, width)
		n := len(level)
		if err := climb(next, func(i int) int { return i * width / n }); err != nil {
			return nil, err
		}
		level = next
	}
	rootLevel := make([]*hier.Partial, 1)
	if err := climb(rootLevel, func(int) int { return 0 }); err != nil {
		return nil, err
	}
	root := rootLevel[0]
	if root == nil {
		return nil, fmt.Errorf("fl: round %d: no partials reached the root", round)
	}

	next, err := root.Finalize()
	if err != nil {
		return nil, fmt.Errorf("fl: round %d aggregate: %w", round, err)
	}
	rec.Participants = root.Participants()
	rec.MeanTrainLoss = root.MeanLoss()
	rec.BytesUp = root.BytesUp()
	rec.BytesDown = root.BytesDown()
	rec.TierResidentBytes = root.ResidentBytes()
	return next, nil
}

// clampSamples converts an exact partial weight to the int NumSamples
// field without overflow.
func clampSamples(v int64) int {
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(v)
}
