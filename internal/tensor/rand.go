package tensor

import (
	"math"
	"math/rand"
)

// RNG is a seeded source of matrix initializations. All randomness in the
// library flows through explicitly seeded RNGs so experiments are
// reproducible bit-for-bit.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Rand exposes the underlying *rand.Rand for callers that need scalar draws.
func (g *RNG) Rand() *rand.Rand { return g.r }

// Reseed resets the RNG to the exact stream NewRNG(seed) would produce,
// without allocating; recycled training contexts reseed their dropout
// streams per step this way.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Uniform returns a rows×cols matrix with entries drawn from U[lo, hi).
func (g *RNG) Uniform(rows, cols int, lo, hi float64) *Matrix {
	m := New(rows, cols)
	span := hi - lo
	for i := range m.data {
		m.data[i] = lo + float64(span*g.r.Float64())
	}
	return m
}

// Normal returns a rows×cols matrix with entries drawn from N(mean, std²).
func (g *RNG) Normal(rows, cols int, mean, std float64) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = mean + float64(std*g.r.NormFloat64())
	}
	return m
}

// Xavier returns a rows×cols matrix with Glorot/Xavier-uniform init, the
// default for linear projections: U[-a, a], a = sqrt(6/(fanIn+fanOut)).
func (g *RNG) Xavier(rows, cols int) *Matrix {
	a := math.Sqrt(6 / float64(rows+cols))
	return g.Uniform(rows, cols, -a, a)
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Intn returns a uniform int in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Shuffle shuffles n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Split derives a child RNG from the parent stream; useful for giving each
// federated client an independent but reproducible stream.
func (g *RNG) Split() *RNG {
	return NewRNG(g.r.Int63())
}
