package fl

import (
	"maps"
	"math"
	"math/rand"
	"slices"

	"clinfl/internal/tensor"
)

// privatize is the site's privacy filter, run where NVFlare runs its
// task-result filters: on the trained weights before they leave the site,
// so the server never reads an unclipped or noise-free update. It scales
// the delta from the task's global model so its L2 norm is at most
// DeltaNormCap, then adds N(0, NoiseSigma²) to every weight: the
// per-client clip and noise of DP-FedAvg (McMahan et al. 2018). global
// holds every weight's name and shape, which the executor's LoadWeights
// checked. Weights are walked in name order and the noise is drawn from a
// stream keyed by (Seed, round) alone, so a site's update is the same bits
// whichever other sites share its round. With both knobs zero it returns
// at once, reading nothing.
//
// Each multiply-add is written with an explicit conversion, which by the
// Go spec rounds the product, so no architecture may fuse it into an FMA.
func (c LocalConfig) privatize(round int, weights, global map[string]*tensor.Matrix) {
	if c.DeltaNormCap == 0 && c.NoiseSigma == 0 {
		return
	}
	names := slices.Sorted(maps.Keys(weights))
	if c.DeltaNormCap > 0 {
		var sq float64
		for _, name := range names {
			g := global[name].Data()
			for j, w := range weights[name].Data() {
				d := w - g[j]
				sq += float64(d * d)
			}
		}
		// A NaN norm fails the test too: a diverged update is left for the
		// accept step to refuse.
		if norm := math.Sqrt(sq); norm > c.DeltaNormCap {
			scale := c.DeltaNormCap / norm
			for _, name := range names {
				g, w := global[name].Data(), weights[name].Data()
				for j := range w {
					w[j] = g[j] + float64(scale*(w[j]-g[j]))
				}
			}
		}
	}
	if c.NoiseSigma > 0 {
		rng := rand.New(&noiseSource{state: mix64(mix64(uint64(c.Seed)) + uint64(round))})
		for _, name := range names {
			w := weights[name].Data()
			for j := range w {
				w[j] += float64(c.NoiseSigma * rng.NormFloat64())
			}
		}
	}
}

// noiseSource is a splitmix64 stream: eight bytes of state, and a
// generator that no math/rand training stream can coincide with.
type noiseSource struct{ state uint64 }

func (s *noiseSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

func (s *noiseSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *noiseSource) Seed(seed int64) { s.state = uint64(seed) }

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
