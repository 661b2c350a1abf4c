package autograd

import (
	"fmt"
	"sync"

	"clinfl/internal/sched"
)

// Parallel tape backward: the tape VM records enough structure (node
// indices and parent pointers) to replay the backward pass as a
// topological wave over the op DAG instead of a strict reverse scan.
// Independent branches — the per-head attention blocks, the residual
// forks, the MLM/classifier heads — execute concurrently on the shared
// fork-join pool.
//
// Determinism: backward node i accumulates vector-Jacobian products into
// its parents' gradient buffers, so two consumers of the same parent must
// not run concurrently (a data race) nor in a run-dependent order
// (floating-point accumulation is not associative). Instead of per-worker
// gradient staging buffers merged afterwards — which would reintroduce
// the allocations and extra passes the arena work removed — the scheduler
// threads an ordering chain through each parent's consumers: the
// highest-index consumer runs first, each consumer waits for the previous
// one, and the parent itself waits for the chain's tail. Accumulation
// into every gradient buffer therefore happens in exactly the reverse
// tape order the serial replay uses, making gradients bit-identical at
// every pool width, while disjoint branches still overlap freely.
//
// Edge construction (one ascending scan): for node i with grad-requiring
// parent p, add edge i -> (p's previously seen consumer, or p itself if i
// is p's first). An edge a -> b means b waits for a.
//
// Execution is wave-synchronous: the current ready set replays as one
// pool ParallelFor with single-node chunks (so stealing balances the
// heterogeneous node costs), completions release the next wave, and the
// loop repeats until the DAG drains. Forking a fresh ParallelFor per wave
// is what keeps pool workers honest: they are re-invited exactly when a
// wave has work, never parked on (or ticket-churned by) a momentarily
// empty queue, and between waves they are free to help other jobs —
// including the kernels inside this wave's own nodes. All scheduler state
// lives in recycled tape-owned slices, so a steady-state parallel
// backward allocates nothing.

// parallelBackwardMinNodes gates the parallel replay: tapes below this
// size (unit-test probes, tiny eval graphs) stay on the serial scan whose
// whole cost is smaller than one pool handoff.
const parallelBackwardMinNodes = 64

// nodeFlopsEstimate is the per-node work estimate handed to ParallelFor.
// Backward nodes run matmul-class kernels (tens of µs to ms), far above
// the pool's fan-out gate, so the estimate only needs to be large enough
// that a multi-node wave always forks with one node per steal chunk.
const nodeFlopsEstimate = 1 << 18

// bwSched is the recycled scheduler state embedded in each Tape.
type bwSched struct {
	tape *Tape

	indeg    []int32 // unmet dependencies per node
	lastCons []int32 // per-node last-seen consumer while building chains
	succOff  []int32 // flattened successor-list offsets (len nodes+1)
	succ     []int32 // successor indices; -1 = duplicate-parent sentinel

	live []bool // grad-liveness per node, set by the pre-allocation pass

	wave []int32 // the ready set currently replaying

	mu       sync.Mutex
	next     []int32 // nodes released by the current wave
	panicked any     // first panic from a node replay, re-raised by owner
}

// scheduled reports whether node n participates in the wave (leaves and
// constants have no backward rule; they only terminate chains).
func scheduled(n *Node) bool {
	return n.op != opLeaf && n.op != opConst && n.requiresGrad
}

// backwardParallel replays the tape as a dependency wave on pool. The
// loss gradient must already be seeded.
func (t *Tape) backwardParallel(pool *sched.Pool) {
	s := &t.bw
	s.tape = t
	s.build()
	for len(s.wave) > 0 {
		if n := len(s.wave); n == 1 {
			s.Run(0, 1)
		} else {
			pool.ParallelFor(n, nodeFlopsEstimate, s)
		}
		if s.panicked != nil {
			p := s.panicked
			s.panicked = nil
			panic(p)
		}
		// The completed wave's releases become the next wave. Swapping the
		// recycled slices keeps this allocation-free.
		s.wave, s.next = s.next, s.wave[:0]
	}
}

// Run implements sched.Body over the current wave: replay nodes
// wave[lo:hi] and collect the successors they release.
func (s *bwSched) Run(lo, hi int) {
	for _, i := range s.wave[lo:hi] {
		s.exec(i)
	}
}

// exec replays one node and releases its successors into the next wave.
// Dependency counters are updated under the scheduler lock (edge counts
// are tiny next to the kernel work inside backward()).
func (s *bwSched) exec(i int32) {
	nd := s.tape.nodes[i]
	if nd.Grad != nil {
		func() {
			defer func() {
				if r := recover(); r != nil {
					s.mu.Lock()
					if s.panicked == nil {
						s.panicked = fmt.Errorf("autograd: parallel backward node %d: %v", i, r)
					}
					s.mu.Unlock()
				}
			}()
			nd.backward()
		}()
	}
	s.mu.Lock()
	for _, e := range s.succ[s.succOff[i]:s.succOff[i+1]] {
		if e < 0 {
			continue
		}
		s.indeg[e]--
		if s.indeg[e] == 0 && scheduled(s.tape.nodes[e]) {
			s.next = append(s.next, e)
		}
	}
	s.mu.Unlock()
}

// grow returns buf resized to n valid elements without shrinking capacity.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// build computes in-degrees and successor lists for the current tape and
// seeds the first wave.
func (s *bwSched) build() {
	nodes := s.tape.nodes
	n := len(nodes)
	s.indeg = grow(s.indeg, n)
	s.lastCons = grow(s.lastCons, n)
	s.succOff = grow(s.succOff, n+1)
	for i := 0; i < n; i++ {
		s.indeg[i] = 0
		s.lastCons[i] = -1
	}

	// Pass 1: successor-list offsets (one slot per grad-requiring parent
	// reference, duplicates included so offsets stay aligned).
	off := int32(0)
	for i, nd := range nodes {
		s.succOff[i] = off
		if nd.requiresGrad {
			off += int32(gradParentCount(nd))
		}
	}
	s.succOff[n] = off
	s.succ = grow(s.succ, int(off))

	// Pass 2: fill edges and count in-degrees, threading each parent's
	// consumer chain through lastCons.
	for i, nd := range nodes {
		if !nd.requiresGrad {
			continue
		}
		fill := s.succOff[i]
		fill = s.edge(int32(i), nd.a, fill)
		fill = s.edge(int32(i), nd.b, fill)
		fill = s.edge(int32(i), nd.c, fill)
		for _, p := range nd.parents {
			fill = s.edge(int32(i), p, fill)
		}
	}

	// Pass 3: liveness and deterministic gradient pre-allocation. Backward
	// rules allocate a parent's gradient buffer at its first accumulation,
	// which under the wave replay happens on whichever pool worker gets
	// there — arena slabs then fill in a run- and GOMAXPROCS-dependent
	// order, fragmenting them differently on every round and forcing slab
	// churn (a bytes/op regression in the FL round benchmarks at -cpu
	// 2/4). Instead, replay the serial scan's allocation decisions here, on
	// the owner goroutine, before any wave runs: walking the tape in
	// descending order, a node will execute iff it is scheduled and either
	// has a seeded gradient (the loss) or was marked live by an executing
	// consumer (all consumers have higher indices, so they are already
	// decided). Executing nodes allocate their backward scratch and their
	// grad-requiring parents' buffers in fixed tape order, so the arena
	// layout is identical at every pool width and the waves themselves
	// allocate nothing.
	s.live = grow(s.live, n)
	clear(s.live)
	for i := n - 1; i >= 0; i-- {
		nd := nodes[i]
		if !scheduled(nd) || (nd.Grad == nil && !s.live[i]) {
			continue
		}
		if nd.op == opLinearGELU && nd.m2 == nil {
			// dh scratch for the GELU chain rule; see backward().
			nd.m2 = s.tape.newMatrixUninit(nd.m1.Rows(), nd.m1.Cols())
		}
		s.prealloc(nd.a)
		s.prealloc(nd.b)
		s.prealloc(nd.c)
		for _, p := range nd.parents {
			s.prealloc(p)
		}
	}

	// Seed: scheduled nodes with no unmet dependencies (the loss node and
	// any dead-end branches).
	s.wave = s.wave[:0]
	if s.next == nil {
		s.next = make([]int32, 0, 16)
	}
	s.next = s.next[:0]
	for i, nd := range nodes {
		if s.indeg[i] == 0 && scheduled(nd) {
			s.wave = append(s.wave, int32(i))
		}
	}
	s.panicked = nil
}

// prealloc marks parent p live and allocates its gradient buffer. Safe to
// call repeatedly (ensureGrad is idempotent); skips parents that take no
// gradient, matching the requiresGrad guards inside the backward rules.
func (s *bwSched) prealloc(p *Node) {
	if p == nil || !p.requiresGrad {
		return
	}
	s.live[p.idx] = true
	p.ensureGrad()
}

// gradParentCount returns how many of nd's parents receive gradients.
func gradParentCount(nd *Node) int {
	c := 0
	if nd.a != nil && nd.a.requiresGrad {
		c++
	}
	if nd.b != nil && nd.b.requiresGrad {
		c++
	}
	if nd.c != nil && nd.c.requiresGrad {
		c++
	}
	for _, p := range nd.parents {
		if p != nil && p.requiresGrad {
			c++
		}
	}
	return c
}

// edge links consumer i into parent p's ordering chain, writing the
// successor slot at fill and returning the next slot. A parent repeated
// within one node (Mul(x, x)) would chain to itself; the slot gets a -1
// sentinel instead (the node's own replay already handles both operands).
func (s *bwSched) edge(i int32, p *Node, fill int32) int32 {
	if p == nil || !p.requiresGrad {
		return fill
	}
	target := s.lastCons[p.idx]
	if target == -1 {
		target = p.idx
	}
	s.lastCons[p.idx] = i
	if target == i {
		s.succ[fill] = -1
		return fill + 1
	}
	s.succ[fill] = target
	s.indeg[target]++
	return fill + 1
}
