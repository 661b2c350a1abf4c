// Package hier implements streaming hierarchical FedAvg: a Partial
// accumulates client updates one at a time into an exact running
// weighted sum (per parameter element) plus an exact total weight, and
// Partials merge associatively, so an aggregation tree of any shape —
// flat, two-tier, lopsided — finalizes to bit-identical global weights.
// The resident state of any node is O(model), independent of how many
// clients fed into it, which is what lets an edge-aggregator tier front
// tens of thousands of clients without the root buffering every update.
// The encoded partial is O(model) too: it carries the aggregate (the sums,
// the total weight, the update count, the loss sum), the failures recorded
// below it and the tier bytes, never a list of the leaves folded in. Leaf
// names stay at the node that accepted them.
//
// Exactness is the whole trick. Floating-point addition is not
// associative, so a naive running float64 sum would make the result
// depend on arrival order and tree shape. Instead each element's sum is
// kept as a Shewchuk floating-point expansion (a nonoverlapping sequence
// of float64 components whose exact sum is the represented value): folds
// add the exact product weight·value via an FMA-derived two-product, and
// merges add the components of one expansion into the other. Finalize
// converts the exact sum to the correctly-rounded float64 quotient
// sum/weight via math/big, which depends only on the represented value —
// never on the component representation a particular fold order produced.
package hier

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"clinfl/internal/tensor"
)

// expansion is a Shewchuk floating-point expansion: components in
// increasing-magnitude order, mutually nonoverlapping, whose exact sum
// is the represented value. A nil/empty expansion represents zero.
// Nonoverlap bounds the length by the float64 exponent range (~40
// components worst case), which is what keeps Partial state O(model).
type expansion []float64

// twoSum returns s = fl(a+b) and the exact roundoff err with
// a + b = s + err (Knuth's branch-free TWO-SUM).
func twoSum(a, b float64) (s, err float64) {
	s = a + b
	bv := s - a
	av := s - bv
	err = (a - av) + (b - bv)
	return s, err
}

// grow adds q into the expansion in place (Shewchuk GROW-EXPANSION with
// zero elimination) and returns the possibly-reallocated slice.
func (e expansion) grow(q float64) expansion {
	n := 0
	for i := 0; i < len(e); i++ {
		s, err := twoSum(q, e[i])
		q = s
		if err != 0 {
			e[n] = err // n <= i, safe in place
			n++
		}
	}
	e = e[:n]
	if q != 0 {
		e = append(e, q)
	}
	return e
}

// growProduct adds the exact product a·b into the expansion. The product
// splits into hi = fl(a·b) and the FMA-recovered roundoff lo with
// a·b = hi + lo exactly; grow(lo) then grow(hi) would add both, but as
// two full passes over the components. This runs the identical pair of
// cascades pipelined in one pass — the hi cascade consumes the lo
// cascade's roundoff stream as it is produced, in the same order the
// second grow would read it, so the arithmetic (and the resulting
// component sequence) is bit-for-bit the two-pass one's. Folding is
// memory-bound at model scale, making the saved pass the whole point.
func (e expansion) growProduct(a, b float64) expansion {
	hi := a * b
	lo := math.FMA(a, b, -hi)
	if lo == 0 {
		return e.grow(hi)
	}
	// out aliases e's backing array; the write index trails the read index
	// (each component read appends at most one roundoff), so in-place is
	// safe, and the tail appends past the loop may grow the slice normally.
	out := e[:0]
	emit := func(c float64) {
		s, err := twoSum(hi, c)
		hi = s
		if err != 0 {
			out = append(out, err)
		}
	}
	for i := 0; i < len(e); i++ {
		s, err := twoSum(lo, e[i])
		lo = s
		if err != 0 {
			emit(err)
		}
	}
	if lo != 0 {
		emit(lo)
	}
	if hi != 0 {
		out = append(out, hi)
	}
	return out
}

// merge adds o's components into e.
func (e expansion) merge(o expansion) expansion {
	for _, c := range o {
		e = e.grow(c)
	}
	return e
}

// finite reports whether every component is a finite float64. Overflow
// mid-sum (inputs are validated finite) poisons components with ±Inf/NaN;
// callers fall back to naive summation to propagate the non-finite value
// the way a plain float64 sum would.
func (e expansion) finite() bool {
	for _, c := range e {
		if math.IsInf(c, 0) || math.IsNaN(c) {
			return false
		}
	}
	return true
}

// expPrec is the big.Float precision used when converting an expansion
// to its exact value: finite float64s span binary exponents -1074..971,
// so any sum of them fits in well under 2100 significand bits.
const expPrec = 2200

// bigVal returns the exact value of the expansion as a big.Float.
func (e expansion) bigVal() *big.Float {
	acc := new(big.Float).SetPrec(expPrec)
	var t big.Float
	for _, c := range e {
		acc.Add(acc, t.SetFloat64(c))
	}
	return acc
}

// round converts the exact sum to the nearest float64. The result
// depends only on the represented value, not on the component layout, so
// any fold/merge order yields identical bits.
func (e expansion) round() float64 {
	switch len(e) {
	case 0:
		return 0
	case 1:
		return e[0]
	}
	if !e.finite() {
		var s float64
		for _, c := range e {
			s += c
		}
		return s
	}
	f, _ := e.bigVal().Float64()
	return f
}

// divider carries reusable big.Float scratch for many exact divisions by
// the same weight, so a model-sized Finalize pays per-element arithmetic,
// not per-element 2200-bit allocations.
type divider struct {
	w           int64
	num, den, q big.Float
	t           big.Float
	scr         expansion
}

func newDivider(w int64) *divider {
	d := &divider{w: w}
	d.num.SetPrec(expPrec)
	d.den.SetInt64(w)
	// The quotient is rounded once, straight to float64 precision: Quo of
	// the two exact operands correctly rounds to q's 53-bit significand,
	// and Float64 is then exact. (Dividing at expPrec and converting after
	// gives the same bits — the intermediate precision is far beyond
	// harmful-double-rounding range — but costs a 2200-bit division per
	// element.)
	d.q.SetPrec(53)
	return d
}

// quo returns the correctly-rounded float64 of (exact sum of e) / w. The
// float64 fast path settles almost every element; exactQuo is the
// arbiter for the rare near-tie it cannot prove. Both paths compute the
// same pure function of the represented value, so which one runs never
// shows in the result.
func (d *divider) quo(e expansion) float64 {
	if !e.finite() {
		var s float64
		for _, c := range e {
			s += c
		}
		return s / float64(d.w)
	}
	if q, ok := d.fastQuo(e); ok {
		return q
	}
	return d.exactQuo(e)
}

// exactQuo divides through expPrec-bit arithmetic: the numerator sum is
// exact, and Quo's single rounding to 53 bits is the correctly-rounded
// quotient.
func (d *divider) exactQuo(e expansion) float64 {
	d.num.SetInt64(0)
	for _, c := range e {
		d.num.Add(&d.num, d.t.SetFloat64(c))
	}
	q, _ := d.q.Quo(&d.num, &d.den).Float64()
	return q
}

// fastQuo attempts the division in plain float64: estimate the quotient,
// recover the exact residual with an error-free product, correct, and
// accept only when the corrected value provably cannot sit within the
// correction's error bound of a rounding boundary. On accept the result
// IS the correctly-rounded quotient — acceptance means every value the
// true quotient could be rounds to the same float64 — so the fast path
// never changes a single bit relative to exactQuo, it only skips it.
func (d *divider) fastQuo(e expansion) (float64, bool) {
	if len(e) == 0 {
		return 0, true
	}
	if d.w >= 1<<53 {
		return 0, false // float64(w) would round; let the exact path handle it
	}
	fw := float64(d.w)
	// Components are nonoverlapping in increasing magnitude order, so the
	// ascending naive sum is a faithful estimate (relative error well
	// under 2^-47 for <= ~40 components).
	var s float64
	for _, c := range e {
		s += c
	}
	q0 := s / fw
	if math.IsInf(q0, 0) || q0 == 0 {
		return 0, false // overflow or underflow-to-zero scale: exact path decides
	}
	// Exact residual r = e - q0·w via an error-free product; the true
	// quotient is exactly q0 + r/w.
	ph := q0 * fw
	pl := math.FMA(q0, fw, -ph)
	if math.IsInf(ph, 0) {
		return 0, false
	}
	r := append(d.scr[:0], e...)
	r = r.grow(-ph)
	if pl != 0 {
		r = r.grow(-pl)
	}
	d.scr = r
	// Track whether rs is the exact sum of the residual: every twoSum
	// roundoff must vanish. Exact rs plus an exact division means the
	// true quotient is exactly h + l — then even a dead-on rounding tie
	// is decidable here, which matters because FedAvg with power-of-two
	// total weight lands on exact midpoints constantly.
	var rs float64
	rsExact := true
	for _, c := range r {
		var roundoff float64
		rs, roundoff = twoSum(rs, c)
		if roundoff != 0 {
			rsExact = false
		}
	}
	q1 := rs / fw
	h, l := twoSum(q0, q1)
	if math.IsInf(h, 0) || h == 0 {
		return 0, false
	}
	// The rounding interval is asymmetric at power-of-two boundaries;
	// measure the half-ulp on the side l points to.
	ah := math.Abs(h)
	bound := (math.Nextafter(ah, math.Inf(1)) - ah) / 2
	if l < 0 {
		bound = (ah - math.Nextafter(ah, 0)) / 2
	}
	al := math.Abs(l)
	if rsExact && math.FMA(q1, fw, -rs) == 0 {
		// q == h + l exactly.
		switch {
		case al < bound:
			return h, true
		case al == bound:
			// True midpoint: round half to even.
			if math.Float64bits(h)&1 == 0 {
				return h, true
			}
			if l > 0 {
				return math.Nextafter(h, math.Inf(1)), true
			}
			return math.Nextafter(h, math.Inf(-1)), true
		}
		return 0, false
	}
	// Inexact correction: true quotient = h + l + eta with |eta| <=
	// |q1|·2^-40 (a generous cover of q1's ~2^-46 relative error). Accept
	// only when h+l±eta stays strictly inside h's rounding interval.
	eta := math.Abs(q1) * 0x1p-40
	if al+eta < bound && eta < al+bound {
		return h, true
	}
	return 0, false
}

// quo returns the correctly-rounded float64 of (exact sum of e) / w.
func (e expansion) quo(w int64) float64 { return newDivider(w).quo(e) }

// residentBytes is the component storage the expansion occupies.
func (e expansion) residentBytes() int64 { return int64(len(e)) * 8 }

// Update is one leaf client's contribution as seen by an aggregator.
type Update struct {
	ClientName string
	Weights    map[string]*tensor.Matrix
	// NumSamples weights the update, exactly as flat FedAvg does.
	NumSamples int
	// TrainLoss is the client's mean local training loss; partials carry
	// the exact loss·samples sum so tier-aggregated mean loss matches
	// what the root would have computed from the raw updates.
	TrainLoss float64
}

// paramSum is the running exact weighted sum for one parameter tensor.
type paramSum struct {
	name       string
	rows, cols int
	sums       []expansion // rows*cols element sums
}

// sortParams puts a schema in name order, the order every walk over a
// partial's params — fold, merge, encode — relies on.
func sortParams(params []*paramSum) {
	slices.SortFunc(params, func(a, b *paramSum) int { return strings.Compare(a.name, b.name) })
}

// newSums carves n empty expansions with perElem capacity each out of one
// backing slab, so the first perElem components an element accumulates
// never hit the allocator (a model-sized Fold would otherwise pay a
// handful of slice growths per element). An expansion that outgrows its
// window falls back to ordinary append reallocation.
func newSums(n, perElem int) []expansion {
	slab := make([]float64, n*perElem)
	sums := make([]expansion, n)
	for i := range sums {
		sums[i] = slab[i*perElem : i*perElem : (i+1)*perElem]
	}
	return sums
}

// Partial is a streaming partial FedAvg aggregate: fold updates in as
// they arrive, merge sibling partials in any order, finalize once at the
// root. The zero value is an empty partial, as NewPartial returns.
type Partial struct {
	// params is the schema plus its sums, sorted by name; it is adopted
	// from the first update folded or partial merged in.
	params  []*paramSum
	weight  int64 // Σ NumSamples, exact
	updates int   // leaf updates folded in (transitively)
	lossSum expansion

	failures  []string
	tierBytes int64

	// data is Fold's scratch: the validated update's data slices, by param
	// index. It is emptied after every fold, so it holds no update alive.
	data [][]float64
}

// maxSamples bounds the sample count one client update may claim, the
// same bound the round engine's accept step applies: no client sets the
// aggregate by its claim alone, and weight × value stays exact in one
// float64 for f32 and int8 values. Merged partials carry sums of checked
// claims and are exempt.
const maxSamples = 1 << 21

// maxMagnitude bounds |v| for every value a client update may carry, the
// same bound the round engine's accept step applies: with claims below
// 2^21 and up to 2^20 updates, no product or sum of a fold can overflow.
// Merged partials carry sums of checked values and are exempt.
const maxMagnitude = 0x1p980

// NewPartial returns an empty partial aggregate.
func NewPartial() *Partial { return &Partial{} }

// Fold accumulates one client update. Validation mirrors the flat
// accept step: a weight outside [1, 2^21), param-count mismatch, missing
// params, and shape mismatches are errors (recorded by callers as
// per-client failures); additionally non-finite values and values of
// magnitude 2^980 or more are rejected, so one poisoned client cannot
// silently NaN or overflow the exact accumulators. A rejected update folds
// nothing.
func (p *Partial) Fold(u Update) error {
	if u.NumSamples <= 0 {
		return fmt.Errorf("hier: client %q has non-positive weight %d", u.ClientName, u.NumSamples)
	}
	if u.NumSamples >= maxSamples {
		return fmt.Errorf("hier: client %q claims %d samples, want fewer than %d", u.ClientName, u.NumSamples, maxSamples)
	}
	if math.IsInf(u.TrainLoss, 0) || math.IsNaN(u.TrainLoss) {
		return fmt.Errorf("hier: client %q reported non-finite train loss", u.ClientName)
	}
	if len(p.params) > 0 && len(u.Weights) != len(p.params) {
		return fmt.Errorf("hier: client %q sent %d params, want %d", u.ClientName, len(u.Weights), len(p.params))
	}
	if len(p.params) == 0 {
		for name, m := range u.Weights {
			p.params = append(p.params, &paramSum{name: name, rows: m.Rows(), cols: m.Cols(), sums: newSums(m.Size(), 4)})
		}
		sortParams(p.params)
	}
	data, err := p.collect(u)
	if err != nil {
		return err
	}
	w := float64(u.NumSamples)
	for k, ps := range p.params {
		for i, v := range data[k] {
			ps.sums[i] = ps.sums[i].growProduct(w, v)
		}
	}
	clear(data)
	p.weight += int64(u.NumSamples)
	p.updates++
	p.lossSum = p.lossSum.growProduct(w, u.TrainLoss)
	return nil
}

// collect is Fold's one validation pass: per param in schema order, one
// lookup, the shape check and the value checks. It returns the update's
// data slices by param index, in the partial's reused scratch.
func (p *Partial) collect(u Update) ([][]float64, error) {
	data := p.data[:0]
	for _, ps := range p.params {
		m, ok := u.Weights[ps.name]
		var err error
		switch {
		case !ok:
			err = fmt.Errorf("hier: client %q missing param %q", u.ClientName, ps.name)
		case m.Rows() != ps.rows || m.Cols() != ps.cols:
			err = fmt.Errorf("hier: client %q param %q is %dx%d, want %dx%d",
				u.ClientName, ps.name, m.Rows(), m.Cols(), ps.rows, ps.cols)
		default:
			switch mx, finite := tensor.MaxAbsFinite(m.Data()); {
			case !finite:
				err = fmt.Errorf("hier: client %q param %q has non-finite value", u.ClientName, ps.name)
			case mx >= maxMagnitude:
				err = fmt.Errorf("hier: client %q param %q has a value of magnitude at least 2^980", u.ClientName, ps.name)
			}
		}
		if err != nil {
			clear(data)
			return nil, err
		}
		data = append(data, m.Data())
	}
	p.data = data
	return data, nil
}

// Reset returns the partial to the empty state while retaining its
// parameter schema and component storage, so a caller aggregating the
// same model round after round (the controller's tier shards) reuses the
// slabs instead of reallocating and zeroing O(model) memory every round.
// A reset partial folds and merges exactly like a fresh NewPartial —
// expansions truncate to empty, and grow never reads past an expansion's
// length — it just skips the schema adoption on first fold.
func (p *Partial) Reset() {
	for _, ps := range p.params {
		for i := range ps.sums {
			ps.sums[i] = ps.sums[i][:0]
		}
	}
	p.weight, p.updates = 0, 0
	p.lossSum = p.lossSum[:0]
	p.failures = p.failures[:0]
	p.tierBytes = 0
}

// Fail records a leaf failure ("name: reason" by convention) so the
// accounting a partial carries upward includes what went wrong below it.
// An entry keeps at most the encoder's maxEntryLen bytes, cut at a UTF-8
// boundary: one leaf's long error text must never fail the encode and take
// every other leaf's update down with it.
func (p *Partial) Fail(entry string) {
	if len(entry) > maxEntryLen {
		cut := maxEntryLen
		for cut > 0 && !utf8.RuneStart(entry[cut]) {
			cut--
		}
		entry = entry[:cut]
	}
	p.failures = append(p.failures, entry)
}

// Merge folds another partial into this one. Merging is associative and
// commutative on the represented values, so any tree shape finalizes
// identically. An empty side adopts the other's parameter schema.
func (p *Partial) Merge(o *Partial) error {
	if o == nil || o.updates == 0 && o.weight == 0 {
		// Nothing aggregated below; still take its accounting.
		if o != nil {
			p.absorbAccounting(o)
		}
		return nil
	}
	if len(p.params) == 0 {
		p.params = make([]*paramSum, len(o.params))
		for k, ps := range o.params {
			// Slab the copy too, with headroom beyond each element's
			// current length so the merges that follow adoption stay off
			// the allocator as well.
			total := 0
			for _, e := range ps.sums {
				total += max(len(e), 2) + 2
			}
			slab := make([]float64, total)
			cp := &paramSum{name: ps.name, rows: ps.rows, cols: ps.cols, sums: make([]expansion, len(ps.sums))}
			off := 0
			for i, e := range ps.sums {
				c := max(len(e), 2) + 2
				cp.sums[i] = append(slab[off:off:off+c], e...)
				off += c
			}
			p.params[k] = cp
		}
	} else {
		if len(o.params) != len(p.params) {
			return fmt.Errorf("hier: merge: partial has %d params, want %d", len(o.params), len(p.params))
		}
		// Both schemas are name-sorted, so params pair by index. Validate
		// every pair before touching any sum: a caller that records a failed
		// merge as one child's failure keeps folding into p.
		for k, ops := range o.params {
			ps := p.params[k]
			if ops.name != ps.name {
				return fmt.Errorf("hier: merge: partial has param %q where %q is expected", ops.name, ps.name)
			}
			if ops.rows != ps.rows || ops.cols != ps.cols {
				return fmt.Errorf("hier: merge: param %q is %dx%d, want %dx%d",
					ps.name, ops.rows, ops.cols, ps.rows, ps.cols)
			}
		}
		for k, ops := range o.params {
			ps := p.params[k]
			for i := range ps.sums {
				ps.sums[i] = ps.sums[i].merge(ops.sums[i])
			}
		}
	}
	p.weight += o.weight
	p.updates += o.updates
	p.lossSum = p.lossSum.merge(o.lossSum)
	p.absorbAccounting(o)
	return nil
}

func (p *Partial) absorbAccounting(o *Partial) {
	p.failures = append(p.failures, o.failures...)
	p.tierBytes += o.tierBytes
}

// Finalize computes the FedAvg result: for each element the correctly
// rounded float64 of exact_weighted_sum / total_weight.
func (p *Partial) Finalize() (map[string]*tensor.Matrix, error) {
	if p.updates == 0 {
		return nil, fmt.Errorf("hier: no updates to aggregate")
	}
	// Folds guarantee weight > 0 when updates > 0, but a decoded wire
	// partial can claim otherwise; never divide by a non-positive weight.
	if p.weight <= 0 {
		return nil, fmt.Errorf("hier: partial claims %d updates but non-positive weight %d", p.updates, p.weight)
	}
	div := newDivider(p.weight)
	out := make(map[string]*tensor.Matrix, len(p.params))
	for _, ps := range p.params {
		m := tensor.New(ps.rows, ps.cols)
		data := m.Data()
		for i, e := range ps.sums {
			data[i] = div.quo(e)
		}
		out[ps.name] = m
	}
	return out, nil
}

// Weight is the exact total sample weight folded in.
func (p *Partial) Weight() int64 { return p.weight }

// Updates is the number of leaf updates folded in (transitively).
func (p *Partial) Updates() int { return p.updates }

// MeanLoss is the sample-weighted mean training loss across every folded
// update (0 when empty).
func (p *Partial) MeanLoss() float64 {
	if p.weight == 0 {
		return 0
	}
	return p.lossSum.quo(p.weight)
}

// Failures returns the sorted failure entries recorded below this node.
func (p *Partial) Failures() []string {
	out := append([]string(nil), p.failures...)
	sort.Strings(out)
	return out
}

// TakeFailures removes and returns the recorded failure entries. A node
// that re-records a child's failures under the child's name takes them
// before merging, so each failure travels upward once.
func (p *Partial) TakeFailures() []string {
	out := p.failures
	p.failures = nil
	return out
}

// TierBytes is the total encoded-partial bytes that crossed aggregator
// hops below this node (see AddTierBytes).
func (p *Partial) TierBytes() int64 { return p.tierBytes }

// AddTierBytes records n encoded-partial wire bytes against this node's
// tier accounting (called when a partial is encoded for, or received
// from, a tier hop).
func (p *Partial) AddTierBytes(n int64) { p.tierBytes += n }

// ResidentBytes reports the aggregation state this partial holds:
// expansion component storage plus fixed per-param overhead. It is the
// O(model) quantity the tier exists to bound — it grows with model size
// and (slowly) with accumulated precision demand, never with the number
// of clients folded in. The failure list is accounting, not aggregation
// state, and is excluded.
func (p *Partial) ResidentBytes() int64 {
	var n int64 = 64 // struct + counters
	for _, ps := range p.params {
		n += 48 // paramSum header
		for _, e := range ps.sums {
			n += 24 + e.residentBytes() // slice header + components
		}
	}
	n += 24 + p.lossSum.residentBytes()
	return n
}
