package fl

import (
	"fmt"
	"math"

	"clinfl/internal/fl/hier"
	"clinfl/internal/tensor"
)

// TierConfig enables hierarchical streaming aggregation: client updates
// fold into O(model) partial aggregates at tier nodes as they arrive, and
// only merged partials flow upward, so the root never buffers per-client
// weight maps. Aggregation stays exact — hier.Partial
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
	// accounted in RoundRecord.TierBytesUp. A networked Server has no
	// widths: its tier shape is the deployed fl.Edge topology. Nil or
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

// tierSink is streaming aggregation behind the round engine's sink seam, for
// every kind of tier node: each accepted update is folded immediately into a
// partial (and the raw weights dropped — the O(model) property), an edge's
// uplink is merged into it, and the root finalizes the exact FedAvg. The
// gather around it is the shared round engine's; stragglers past the
// deadline are dropped when they surface, because settle admits no
// AsyncAggregator.
type tierSink struct {
	// widths are the fan-ins of the in-process tiers between the sampled
	// clients and the root, leaf-most first: updates fold into widths[0]
	// edge-shard partials that merge up the tiers with per-hop byte
	// accounting. Empty on a networked node (a tier-enabled Server, an
	// Edge): its tiers are the deployed topology, so whatever it accepts
	// goes into its one partial.
	widths []int
	// scratch recycles the shard partials across rounds (Reset keeps each
	// one's O(model) slabs warm), so a round's aggregation state is
	// allocated once per run, not once per round.
	scratch []*hier.Partial
	// shardOf maps a roster id to its shard this round. It is cleared each
	// round, so a client outside the sample (or past the table's end) lands
	// in shard 0.
	shardOf []int
	// shards holds this round's partials; nil means no update reached the
	// shard yet.
	shards []*hier.Partial
	// partials counts the partials that crossed a hop into or inside this
	// node; failures are the leaf failures the merged partials reported.
	partials int
	failures []string
}

// open lays out the round's deterministic shard map: contiguous blocks of
// the name-sorted sample, so the tier shape is a pure function of the
// sampled set.
func (t *tierSink) open(sampled []int) {
	edges := 1
	clear(t.shardOf)
	if len(t.widths) > 0 {
		edges = min(t.widths[0], len(sampled))
		for i, id := range sampled {
			if id >= len(t.shardOf) {
				t.shardOf = append(t.shardOf, make([]int, id+1-len(t.shardOf))...)
			}
			t.shardOf[id] = i * edges / len(sampled)
		}
	}
	for len(t.scratch) < edges {
		t.scratch = append(t.scratch, hier.NewPartial())
	}
	t.shards = make([]*hier.Partial, edges)
	t.partials, t.failures = 0, nil
}

// accept is the one place an update enters a partial: a plain update is
// folded into its shard, an edge's uplink (itself a partial, so tiers stack)
// is merged. A slot is taken from the run-long scratch the first time its
// shard is hit; a reset partial accumulates bit-identically to a fresh one.
// An update the partial rejects is a per-client failure, not a federation
// abort: the round proceeds with everyone else.
func (t *tierSink) accept(id int, u *ClientUpdate) error {
	s := 0
	if id < len(t.shardOf) {
		s = t.shardOf[id]
	}
	p := t.shards[s]
	if p == nil {
		p = t.scratch[s]
		p.Reset()
		t.shards[s] = p
	}
	if child := u.hierPartial; child != nil {
		// The failures below the edge surface in this node's round record
		// under the edge's name; they are taken, not copied, so the merged
		// partial does not carry them a second time.
		for _, f := range child.TakeFailures() {
			t.failures = append(t.failures, u.ClientName+"/"+f)
		}
		if err := p.Merge(child); err != nil {
			return err
		}
		p.AddTierBytes(int64(u.PayloadBytes))
		t.partials++
		return nil
	}
	err := u.decode()
	u.release()
	if err != nil {
		return err
	}
	return p.Fold(hier.Update{ClientName: u.ClientName, Weights: u.Weights, NumSamples: u.NumSamples, TrainLoss: u.TrainLoss})
}

// merge climbs the round's partials up the in-process tiers to the one root
// partial and fills the record's accounting from it. Each hop accounts the
// exact wire size the level's partials would encode to — what an edge would
// have sent — without serializing them (EncodedSize is pinned against
// EncodePartial); merge order is index order, and exactness makes it
// irrelevant to the result anyway.
func (t *tierSink) merge(round int, rec *RoundRecord) (*hier.Partial, error) {
	level := make([]*hier.Partial, 0, len(t.shards))
	for _, p := range t.shards {
		if p != nil {
			level = append(level, p)
		}
	}
	// One hop into each upper tier, then one into the root; none on a
	// networked node, whose one partial already is its root.
	for hop := 1; hop <= len(t.widths); hop++ {
		width := 1
		if hop < len(t.widths) {
			width = t.widths[hop]
		}
		width = min(width, len(level))
		next := make([]*hier.Partial, width)
		for i, p := range level {
			size, err := p.EncodedSize()
			if err != nil {
				return nil, fmt.Errorf("fl: round %d: encode partial: %w", round, err)
			}
			t.partials++
			g := i * width / len(level)
			if next[g] == nil {
				// The group's first partial is adopted, not copied: the lower
				// level is dead after the climb, and merging is exact, so
				// "merge into an adopted sibling" and "merge into a fresh
				// empty partial" finalize bit-identically.
				next[g] = p
			} else if err := next[g].Merge(p); err != nil {
				return nil, fmt.Errorf("fl: round %d: merge partial: %w", round, err)
			}
			next[g].AddTierBytes(size)
		}
		level = next
	}
	if len(level) == 0 {
		return nil, fmt.Errorf("fl: round %d: no partials reached the root", round)
	}
	root := level[0]
	rec.Failures = append(rec.Failures, t.failures...)
	rec.MeanTrainLoss = root.MeanLoss()
	rec.TierPartials = t.partials
	rec.TierBytesUp = root.TierBytes()
	rec.TierResidentBytes = root.ResidentBytes()
	return root, nil
}

// finalize divides the root partial into the next model.
func (t *tierSink) finalize(round int, _ map[string]*tensor.Matrix, _ []*ClientUpdate, rec *RoundRecord) (map[string]*tensor.Matrix, error) {
	root, err := t.merge(round, rec)
	if err != nil {
		return nil, err
	}
	next, err := root.Finalize()
	if err != nil {
		return nil, fmt.Errorf("fl: round %d aggregate: %w", round, err)
	}
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
