package tensor

import (
	"math"
	"sync"
)

// Arena is a bump allocator for step-scoped Matrix values.
//
// Training builds thousands of short-lived matrices per step (activation
// values, gradients, backward scratch) whose lifetimes all end together when
// the tape that recorded them is reset. An Arena carves them out of large
// reusable slabs instead of the heap: Get bumps an offset, Reset rewinds it.
// After the first step every slab and Matrix header already exists, so a
// steady-state step performs zero allocations through the arena.
//
// Lifetime rule: a Matrix returned by Get (and anything aliasing its Data)
// is valid only until the next Reset. Callers that need a value to survive
// Reset must Clone it into the heap first. Get is safe for concurrent use;
// Reset requires every user of the arena to be quiescent, the same
// discipline as Tape.Reset itself.
type Arena struct {
	mu    sync.Mutex
	slabs [][]float64
	slab  int // index of the slab currently being bumped
	off   int // offset into slabs[slab]

	headers []*Matrix // recycled Matrix headers, reused in order
	hdr     int       // next header index
}

// arenaMinSlabFloats is the size of the first slab (512 KiB of float64s).
// Subsequent slabs double, so an arena reaches any working-set size in a
// logarithmic number of allocations and then never allocates again.
const arenaMinSlabFloats = 1 << 16

// NewArena returns an empty arena. Slabs are allocated on demand.
func NewArena() *Arena { return &Arena{} }

// Get returns a zeroed rows×cols matrix backed by arena memory. The matrix
// (header and data) is recycled on Reset; see the type comment for the
// lifetime rule.
func (a *Arena) Get(rows, cols int) *Matrix {
	m := a.GetUninit(rows, cols)
	clear(m.data)
	return m
}

// GetUninit is Get without the zeroing pass: the returned matrix holds
// whatever the recycled slab last held. For outputs that are fully
// overwritten (assign-mode matmuls, elementwise maps) the clear is pure
// memory traffic — it cost ~12% of a BERT forward before this split.
// Callers that accumulate into the matrix must use Get. Built with the
// arenapoison tag, GetUninit fills the matrix with NaN instead.
func (a *Arena) GetUninit(rows, cols int) *Matrix {
	n := rows * cols
	if rows < 0 || cols < 0 {
		panic("tensor: arena Get with negative dimensions")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var data []float64
	if n > 0 {
		for a.slab >= len(a.slabs) || a.off+n > len(a.slabs[a.slab]) {
			if a.slab < len(a.slabs) {
				// Current slab can't fit the request; move on. The tail is
				// wasted until Reset, but doubling keeps waste bounded.
				a.slab++
				a.off = 0
				continue
			}
			size := arenaMinSlabFloats
			if last := len(a.slabs); last > 0 {
				size = 2 * len(a.slabs[last-1])
			}
			if size < n {
				size = n
			}
			a.slabs = append(a.slabs, make([]float64, size))
			a.off = 0
		}
		data = a.slabs[a.slab][a.off : a.off+n : a.off+n]
		a.off += n
		if arenaPoison {
			for i := range data {
				data[i] = math.NaN()
			}
		}
	}
	var m *Matrix
	if a.hdr < len(a.headers) {
		m = a.headers[a.hdr]
	} else {
		m = new(Matrix)
		a.headers = append(a.headers, m)
	}
	a.hdr++
	*m = Matrix{rows: rows, cols: cols, data: data}
	return m
}

// Reset rewinds the arena, invalidating every matrix handed out since the
// previous Reset while retaining all slabs and headers for reuse.
func (a *Arena) Reset() {
	a.slab = 0
	a.off = 0
	a.hdr = 0
}

// Footprint returns the total float64 capacity held across all slabs,
// for memory accounting and tests.
func (a *Arena) Footprint() int {
	total := 0
	for _, s := range a.slabs {
		total += len(s)
	}
	return total
}

// Live returns the number of matrices handed out since the last Reset.
func (a *Arena) Live() int { return a.hdr }
