// Package fl implements the federated-learning stack modeled on NVFlare's
// scatter-and-gather workflow (Fig. 1): a server-side controller that
// dispatches the global model each round, client-side executors that train
// locally, weighted FedAvg aggregation, model selection, and both an
// in-process simulator (NVFlare's simulator mode) and a networked
// deployment over the provision/transport substrate.
package fl

import (
	"errors"
	"fmt"

	"clinfl/internal/fl/hier"
	"clinfl/internal/tensor"
)

// ClientUpdate is one client's contribution for a round.
type ClientUpdate struct {
	ClientName string
	Round      int
	// Weights are the client's post-training parameters.
	Weights map[string]*tensor.Matrix
	// NumSamples weights this update during aggregation.
	NumSamples int
	// TrainLoss is the client's mean local training loss for the round.
	TrainLoss float64
	// PayloadBytes is the encoded update's size on the wire (0 for
	// in-process executors); experiments report bytes-on-wire from it.
	PayloadBytes int
	// DownBytes is the encoded task (global model) payload the client paid
	// to download before training this round — the downlink counterpart of
	// PayloadBytes, stamped by executors that model or measure their own
	// transfers (the simulator's clients, cost-replaying surrogates). The
	// networked server accounts downlink at send time instead and leaves
	// this zero; it is advisory accounting and is not persisted in WAL
	// update records.
	DownBytes int
	// hierPartial carries a decoded tier partial when this "update" is an
	// fl.Edge's merged uplink rather than a single client's weights; only
	// the tier sink (a tier-enabled Server, or another Edge) consumes it.
	hierPartial *hier.Partial
	// payload, when set with Weights nil, makes the update wire-backed: it
	// is the codec payload the update arrived in, and params is what the
	// check walk read of it. FedAvg and MeanAggregator fold the payload
	// straight into the round's sum; a consumer that needs the map calls
	// decode, once the params have matched the round's global model.
	payload []byte
	params  []paramCheck
}

// wire reports whether the update is wire-backed.
func (u *ClientUpdate) wire() bool { return u.Weights == nil && u.payload != nil }

// decode gives a wire-backed update its weight map. Callers decode only
// after the schema check against the round's global model, so what is
// allocated is the model's size, never what a payload claims.
func (u *ClientUpdate) decode() error {
	if !u.wire() {
		return nil
	}
	weights, err := DecodeWeights(u.payload)
	if err != nil {
		return err
	}
	u.Weights = weights
	return nil
}

// numParams is how many params the update carries.
func (u *ClientUpdate) numParams() int {
	if u.wire() {
		return len(u.params)
	}
	return len(u.Weights)
}

// Aggregator combines client updates into a new global model.
type Aggregator interface {
	// Aggregate merges updates; the result maps parameter names to new
	// global values. An update a Server received may be wire-backed: its
	// Weights are nil and FedAvg and MeanAggregator fold its payload, so an
	// Aggregator that wraps one of them passes its updates on unchanged.
	Aggregate(updates []*ClientUpdate) (map[string]*tensor.Matrix, error)
	// Name identifies the strategy in logs and experiment records.
	Name() string
}

// FedAvg is the sample-count-weighted parameter average of McMahan et al.,
// NVFlare's default aggregator and the one the paper's pipeline uses.
type FedAvg struct{}

// Name implements Aggregator.
func (FedAvg) Name() string { return "fedavg" }

// Aggregate implements Aggregator.
func (FedAvg) Aggregate(updates []*ClientUpdate) (map[string]*tensor.Matrix, error) {
	return weightedAverage(updates, func(u *ClientUpdate) float64 {
		return float64(u.NumSamples)
	})
}

// MeanAggregator averages updates uniformly regardless of client data
// volume; included as the ablation baseline DESIGN.md calls out.
type MeanAggregator struct{}

// Name implements Aggregator.
func (MeanAggregator) Name() string { return "mean" }

// Aggregate implements Aggregator.
func (MeanAggregator) Aggregate(updates []*ClientUpdate) (map[string]*tensor.Matrix, error) {
	return weightedAverage(updates, func(*ClientUpdate) float64 { return 1 })
}

// weightedAverage merges updates with the given weight function, in the
// order given. A wire-backed update is folded from its payload, which adds
// the same values in the same order as decoding it first: the bits do not
// depend on which form an update is in.
func weightedAverage(updates []*ClientUpdate, weightOf func(*ClientUpdate) float64) (map[string]*tensor.Matrix, error) {
	if len(updates) == 0 {
		return nil, errors.New("fl: no updates to aggregate")
	}
	var total float64
	for _, u := range updates {
		w := weightOf(u)
		if w <= 0 {
			return nil, fmt.Errorf("fl: client %q has non-positive weight %v", u.ClientName, w)
		}
		total += w
	}
	ref := updates[0]
	out := make(map[string]*tensor.Matrix, ref.numParams())
	if ref.wire() {
		for _, p := range ref.params {
			out[p.name] = tensor.New(p.rows, p.cols)
		}
	} else {
		for name, m := range ref.Weights {
			out[name] = tensor.New(m.Rows(), m.Cols())
		}
	}
	var scratch []float64
	for _, u := range updates {
		if n := u.numParams(); n != len(out) {
			return nil, fmt.Errorf("fl: client %q sent %d params, want %d", u.ClientName, n, len(out))
		}
		w := weightOf(u) / total
		if u.wire() {
			if err := foldPayload(u.payload, out, w, &scratch); err != nil {
				return nil, fmt.Errorf("fl: aggregate from %q: %w", u.ClientName, err)
			}
			continue
		}
		for name, acc := range out {
			m, ok := u.Weights[name]
			if !ok {
				return nil, fmt.Errorf("fl: client %q missing param %q", u.ClientName, name)
			}
			if err := acc.AddScaledInPlace(w, m); err != nil {
				return nil, fmt.Errorf("fl: aggregate %q from %q: %w", name, u.ClientName, err)
			}
		}
	}
	return out, nil
}

// AsyncAggregator folds a single (possibly stale) update into the current
// global model, FedAsync-style: unlike Aggregator it does not wait for a
// batch of updates, so the controller can apply stragglers' contributions
// from earlier rounds as they trickle in.
type AsyncAggregator interface {
	// Apply mutates global in place with u's contribution. staleness is
	// how many rounds old the update is (0 = current round).
	Apply(global map[string]*tensor.Matrix, u *ClientUpdate, staleness int) error
	// Name identifies the strategy in logs and experiment records.
	Name() string
}

// FedAsync is the staleness-damped asynchronous merge of Xie et al.
// (FedAsync): global ← (1-α_s)·global + α_s·update with α_s =
// Alpha/(1+staleness), so fresher updates move the model more and ancient
// ones fade toward no-ops instead of dragging it backward.
type FedAsync struct {
	// Alpha is the mixing rate for a fresh (staleness-0) update; values in
	// (0, 1]. Zero defaults to 0.5. NewController and NewServer reject any
	// other value, NaN included.
	Alpha float64
}

// Name implements AsyncAggregator.
func (FedAsync) Name() string { return "fedasync" }

// alpha returns the mixing rate for a fresh update. Alpha must be 0 (the
// default) or in (0, 1]; the negated range check rejects NaN too.
func (f FedAsync) alpha() (float64, error) {
	if f.Alpha == 0 {
		return 0.5, nil
	}
	if !(f.Alpha > 0 && f.Alpha <= 1) {
		return 0, fmt.Errorf("FedAsync alpha %v is outside (0, 1]", f.Alpha)
	}
	return f.Alpha, nil
}

// Apply implements AsyncAggregator.
func (f FedAsync) Apply(global map[string]*tensor.Matrix, u *ClientUpdate, staleness int) error {
	alpha, err := f.alpha()
	if err != nil {
		return fmt.Errorf("fl: %w", err)
	}
	if staleness < 0 {
		return fmt.Errorf("fl: fedasync negative staleness %d", staleness)
	}
	if len(u.Weights) != len(global) {
		return fmt.Errorf("fl: fedasync: client %q sent %d params, want %d", u.ClientName, len(u.Weights), len(global))
	}
	a := alpha / float64(1+staleness)
	for name, g := range global {
		w, ok := u.Weights[name]
		if !ok {
			return fmt.Errorf("fl: fedasync: client %q missing param %q", u.ClientName, name)
		}
		g.ScaleInPlace(1 - a)
		if err := g.AddScaledInPlace(a, w); err != nil {
			return fmt.Errorf("fl: fedasync %q from %q: %w", name, u.ClientName, err)
		}
	}
	return nil
}
