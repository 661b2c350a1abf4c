package fl

import (
	"errors"
	"fmt"
	"math"

	"clinfl/internal/tensor"
)

// Filter transforms a client update before aggregation, mirroring
// NVFlare's privacy filters (the framework feature the paper cites as
// "privacy preservation"). Filters run server-side in update order.
type Filter interface {
	// Apply mutates or replaces the update. global is the model the round
	// started from, letting delta-based filters reconstruct update
	// differences.
	Apply(update *ClientUpdate, global map[string]*tensor.Matrix) error
	// Name identifies the filter in logs.
	Name() string
}

// NormCapFilter rescales each client's *delta* from the global model so
// its global L2 norm is at most Cap — the clipping half of differentially
// private FedAvg, and a defense against poisoned or divergent updates.
type NormCapFilter struct {
	// Cap is the maximum allowed delta norm (must be positive).
	Cap float64
}

// Name implements Filter.
func (f NormCapFilter) Name() string { return "norm-cap" }

// Apply implements Filter.
func (f NormCapFilter) Apply(update *ClientUpdate, global map[string]*tensor.Matrix) error {
	if f.Cap <= 0 {
		return errors.New("fl: norm cap must be positive")
	}
	var sq float64
	deltas := make(map[string]*tensor.Matrix, len(update.Weights))
	for name, w := range update.Weights {
		g, ok := global[name]
		if !ok {
			return fmt.Errorf("fl: norm-cap: param %q missing from global", name)
		}
		d, err := tensor.Sub(w, g)
		if err != nil {
			return fmt.Errorf("fl: norm-cap %q: %w", name, err)
		}
		n := d.Norm()
		sq += n * n
		deltas[name] = d
	}
	norm := math.Sqrt(sq)
	if norm <= f.Cap || norm == 0 {
		return nil
	}
	scale := f.Cap / norm
	for name, d := range deltas {
		d.ScaleInPlace(scale)
		w := global[name].Clone()
		if err := w.AddInPlace(d); err != nil {
			return fmt.Errorf("fl: norm-cap %q: %w", name, err)
		}
		update.Weights[name] = w
	}
	return nil
}

// GaussianNoiseFilter adds N(0, Sigma²) noise to every parameter of the
// update — the noise half of DP-FedAvg. Combined with NormCapFilter it
// yields per-round (ε, δ) guarantees under the Gaussian mechanism; the
// calibration of Sigma to a privacy budget is the operator's choice.
type GaussianNoiseFilter struct {
	// Sigma is the noise standard deviation (must be non-negative).
	Sigma float64
	// RNG drives the noise stream (required when Sigma > 0).
	RNG *tensor.RNG
}

// Name implements Filter.
func (f GaussianNoiseFilter) Name() string { return "gaussian-noise" }

// Apply implements Filter.
func (f GaussianNoiseFilter) Apply(update *ClientUpdate, _ map[string]*tensor.Matrix) error {
	if f.Sigma < 0 {
		return errors.New("fl: noise sigma must be non-negative")
	}
	if f.Sigma == 0 {
		return nil
	}
	if f.RNG == nil {
		return errors.New("fl: gaussian noise filter needs an RNG")
	}
	for name, w := range update.Weights {
		noisy := w.Clone()
		d := noisy.Data()
		for i := range d {
			d[i] += f.RNG.Rand().NormFloat64() * f.Sigma
		}
		update.Weights[name] = noisy
	}
	return nil
}

// applyFilters runs the configured filter chain over every update. Filters
// read and replace weight maps, so a wire-backed update is decoded first;
// the accept step has already matched its shapes to the model.
func applyFilters(filters []Filter, updates []*ClientUpdate, global map[string]*tensor.Matrix) error {
	if len(filters) == 0 {
		return nil
	}
	for _, u := range updates {
		if err := u.decode(); err != nil {
			return fmt.Errorf("fl: decode %q for filters: %w", u.ClientName, err)
		}
	}
	for _, flt := range filters {
		for _, u := range updates {
			if err := flt.Apply(u, global); err != nil {
				return fmt.Errorf("fl: filter %s on %q: %w", flt.Name(), u.ClientName, err)
			}
		}
	}
	return nil
}
