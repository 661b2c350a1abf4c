// Package sched implements the persistent fork-join compute runtime the
// training stack runs on: a pool of long-lived worker goroutines (one per
// P) that the tensor kernels share.
//
// Training parallelism has two levels. Across sites, the federation runs
// one goroutine per executor, and each site's training step is one tape on
// that goroutine. Inside kernels, ParallelFor splits a loop into chunks
// whose boundaries depend only on the loop shape. The pool is what bounds
// the second level: work is handed to already-running workers through
// lock-free chunk cursors, and because every site's kernels share one
// pool, total parallelism stays bounded by the hardware no matter how many
// clients train concurrently.
//
// Scheduling model: a caller forks a job (ParallelFor), registers
// it on the pool's job board, pokes parked workers, and then works on the
// job itself. Idle workers join, claim a per-participant chunk slice, and
// steal from other slices when theirs runs dry. If every worker is busy —
// for example when another federated client owns them — the caller simply
// executes the whole job inline: forking never blocks on worker
// availability, which is what makes nesting (a kernel forked from inside
// another pool job) deadlock-free.
//
// Allocation model: jobs, their cursor arrays and their completion
// channels are recycled through a free list, and loop bodies are passed as
// interfaces over caller-pooled structs, so a steady-state ParallelFor
// performs zero allocations.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Body is a parallel loop body. Run processes items [lo, hi); it is called
// concurrently on disjoint ranges and must not retain them. It is an
// interface rather than a func so hot callers can pass a pooled struct and
// keep the dispatch allocation-free.
type Body interface{ Run(lo, hi int) }

// BodyFunc adapts a plain function to Body for callers that don't need the
// zero-allocation discipline (tests, one-off tools).
type BodyFunc func(lo, hi int)

// Run implements Body.
func (f BodyFunc) Run(lo, hi int) { f(lo, hi) }

const (
	// flopsPerHelper is the minimum work (flops; one multiply-add = 2)
	// each participant must amortize before ParallelFor fans out. Waking a
	// parked worker costs ~1µs; 1<<17 flops is ~15-30µs of kernel work at
	// the measured 4-8 GFLOP/s, keeping handoff overhead under ~10%.
	flopsPerHelper = 1 << 17
	// chunkFlops sizes the steal quantum: chunks of ~1<<14 flops (~2-4µs)
	// are small enough that stealing balances ragged kernels, large enough
	// that the one atomic claim per chunk (~tens of ns) is noise. Chunk
	// boundaries depend only on the loop shape, never on the worker count,
	// so a kernel's per-element arithmetic is identical at every pool size.
	chunkFlops = 1 << 14
	// ticketClosed parks a job's ticket counter: claims drawn at or above
	// it are stale (the job completed or was recycled) and are ignored.
	ticketClosed = int64(1) << 40
)

// cursor is one slice's chunk cursor, padded to a cache line so
// participants claiming from different slices never false-share.
type cursor struct {
	next atomic.Int64
	_    [56]byte
}

// job is one fork-join region. A job is visible to workers only between
// post and unpost, but stale pointers from old board snapshots may touch
// it at any time, so its lifecycle is guarded twice: the ticket counter
// rejects claims against a completed or recycled job, and the pinned count
// keeps a job off the free list while any worker still holds it.
type job struct {
	// Chunks are numbered 0..nchunk-1 over [0, n) in
	// strides of chunk; slice s owns chunks [sliceHi[s-1], sliceHi[s]) and
	// cursors[s] is the absolute next-chunk claim for that slice.
	body      Body
	n         int
	chunk     int
	slices    int
	sliceHi   []int64
	cursors   []cursor
	remaining atomic.Int64  // chunks not yet completed
	done      chan struct{} // single completion token to the caller

	// ticket hands out participant identities (the caller is always 0, so
	// the live counter starts at 1). Stored ticketClosed while idle;
	// reopening it is the last step of configuration, so a successful
	// claim proves every other field is initialized.
	ticket atomic.Int64

	// pinned counts workers currently inside help(); a job is reusable
	// only once it drains to zero.
	pinned atomic.Int64
}

// help lets a pool worker join whatever phase the job is in. Returns
// whether any work was actually claimed (so sweeps can tell a live board
// from an exhausted one).
func (j *job) help() bool {
	j.pinned.Add(1)
	defer j.pinned.Add(-1)
	t := j.ticket.Add(1) - 1
	if t >= ticketClosed-1 {
		return false
	}
	return j.drainFor(int(t%int64(j.slices))) > 0
}

// drainFor claims and runs chunks until none remain: the participant's own
// slice first (cache-friendly contiguous rows), then stealing from every
// other slice. Returns the number of chunks executed.
func (j *job) drainFor(slice int) int {
	ran := 0
	for i := 0; i < j.slices; i++ {
		s := slice + i
		if s >= j.slices {
			s -= j.slices
		}
		hi := j.sliceHi[s]
		for {
			c := j.cursors[s].next.Add(1) - 1
			if c >= hi {
				break
			}
			lo := int(c) * j.chunk
			end := lo + j.chunk
			if end > j.n {
				end = j.n
			}
			j.body.Run(lo, end)
			ran++
			if j.remaining.Add(-1) == 0 {
				j.done <- struct{}{}
			}
		}
	}
	return ran
}

// Pool is a persistent fork-join worker pool of the given width: width-1
// long-lived worker goroutines plus the caller of each fork. The zero
// value is not usable; build pools with New (or share Default).
type Pool struct {
	width     int
	wake      chan struct{}
	quit      chan struct{}
	closeOnce sync.Once

	mu    sync.Mutex
	board []*job // jobs currently accepting helpers
	free  []*job // recycled jobs (kept forever; bounded by peak concurrency)
}

// New builds a pool of the given parallel width (minimum 1; width-1 worker
// goroutines are spawned, since the forking caller is itself a
// participant). Pools should be long-lived; Close releases the workers.
func New(width int) *Pool {
	if width < 1 {
		width = 1
	}
	p := &Pool{
		width: width,
		wake:  make(chan struct{}, 4*width),
		quit:  make(chan struct{}),
	}
	for i := 1; i < width; i++ {
		go p.work()
	}
	return p
}

// Size returns the pool's parallel width (worker goroutines + 1 caller).
func (p *Pool) Size() int { return p.width }

// Close asks the workers to exit once idle. Jobs already forked complete
// normally (their callers always self-execute leftover work); forking on
// a closed pool still completes, just inline on the caller. Close is
// idempotent.
func (p *Pool) Close() { p.closeOnce.Do(func() { close(p.quit) }) }

// work is the worker goroutine loop: park on the wake channel, then sweep
// the board helping every registered job until a full sweep finds nothing
// to claim, then park again. Tokens are buffered, so a job posted during a
// fruitless sweep re-wakes the worker immediately.
func (p *Pool) work() {
	var snap []*job
	for {
		select {
		case <-p.quit:
			return
		case <-p.wake:
		}
		for {
			p.mu.Lock()
			snap = append(snap[:0], p.board...)
			p.mu.Unlock()
			helped := false
			for _, j := range snap {
				if j.help() {
					helped = true
				}
			}
			if !helped {
				break
			}
		}
	}
}

// post registers a job on the board and wakes up to tokens workers.
// Token sends never block: a full wake buffer already guarantees every
// parked worker has a pending sweep.
func (p *Pool) post(j *job, tokens int) {
	p.mu.Lock()
	p.board = append(p.board, j)
	p.mu.Unlock()
	for i := 0; i < tokens; i++ {
		select {
		case p.wake <- struct{}{}:
		default:
			return
		}
	}
}

// unpost removes a completed job from the board.
func (p *Pool) unpost(j *job) {
	p.mu.Lock()
	for i, b := range p.board {
		if b == j {
			last := len(p.board) - 1
			p.board[i] = p.board[last]
			p.board[last] = nil
			p.board = p.board[:last]
			break
		}
	}
	p.mu.Unlock()
}

// getJob takes a quiescent recycled job, or builds one sized to the pool.
// A recycled job still pinned by a stale board snapshot is briefly waited
// out rather than reused: configuration must never race a late reader.
func (p *Pool) getJob() *job {
	p.mu.Lock()
	for i, j := range p.free {
		if j.pinned.Load() == 0 {
			last := len(p.free) - 1
			p.free[i] = p.free[last]
			p.free[last] = nil
			p.free = p.free[:last]
			p.mu.Unlock()
			return j
		}
	}
	if n := len(p.free); n > 0 {
		j := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		// Pins are µs-scale (a worker between claiming and bailing out of
		// an exhausted job), so spinning beats allocating.
		for j.pinned.Load() != 0 {
			runtime.Gosched()
		}
		return j
	}
	p.mu.Unlock()
	j := &job{
		sliceHi: make([]int64, p.width),
		cursors: make([]cursor, p.width),
		done:    make(chan struct{}, 1),
	}
	j.ticket.Store(ticketClosed)
	return j
}

// putJob retires a completed job to the free list. Closing the ticket
// first makes any stale claim a no-op before the job's fields go stale.
func (p *Pool) putJob(j *job) {
	j.ticket.Store(ticketClosed)
	j.body = nil
	p.mu.Lock()
	p.free = append(p.free, j)
	p.mu.Unlock()
}

// WouldFork reports whether a ParallelFor of this shape could fan out.
// Hot callers that must build per-call state to hand work to the pool
// (the tensor kernels' pooled job structs) use it to skip that machinery
// entirely for loops the gate would run inline anyway.
func (p *Pool) WouldFork(n, flopsPerItem int) bool {
	if n <= 1 || p.width <= 1 {
		return false
	}
	if flopsPerItem < 1 {
		flopsPerItem = 1
	}
	return int64(n)*int64(flopsPerItem) >= 2*flopsPerHelper
}

// ParallelFor runs body over [0, n) on the pool and returns when every
// item has been processed. flopsPerItem is the real per-item cost (one
// multiply-add = 2 flops); it gates fan-out — small loops run inline on
// the caller with no synchronization at all — and sizes the steal chunks.
// Chunk boundaries depend only on (n, flopsPerItem), never on the worker
// count or on which participant runs a chunk, so any body whose per-item
// arithmetic is range-independent produces bit-identical results at every
// pool size.
func (p *Pool) ParallelFor(n, flopsPerItem int, body Body) {
	if n <= 0 {
		return
	}
	if flopsPerItem < 1 {
		flopsPerItem = 1
	}
	w := p.width
	if byWork := int64(n) * int64(flopsPerItem) / flopsPerHelper; int64(w) > byWork {
		w = int(byWork)
	}
	if w > n {
		w = n
	}
	chunk := 1
	nchunk := n
	if w > 1 {
		chunk = (chunkFlops + flopsPerItem - 1) / flopsPerItem
		if chunk < 1 {
			chunk = 1
		}
		nchunk = (n + chunk - 1) / chunk
		if w > nchunk {
			w = nchunk
		}
	}
	if w <= 1 {
		body.Run(0, n)
		return
	}

	j := p.getJob()
	j.body = body
	j.n = n
	j.chunk = chunk
	j.slices = w
	per, rem := nchunk/w, nchunk%w
	hi := int64(0)
	for s := 0; s < w; s++ {
		lo := hi
		hi += int64(per)
		if s < rem {
			hi++
		}
		j.sliceHi[s] = hi
		j.cursors[s].next.Store(lo)
	}
	j.remaining.Store(int64(nchunk))
	j.ticket.Store(1) // publish: claims now see fully-configured state

	p.post(j, w-1)
	j.drainFor(0)
	<-j.done
	p.unpost(j)
	p.putJob(j)
}

// defaultPool is the process-wide shared pool. It is sized to GOMAXPROCS
// and transparently rebuilt when GOMAXPROCS changes (benchmarks run with
// -cpu 1,2,4), unless a caller pinned an explicit pool via SetDefault.
// defaultOwned distinguishes pools this mechanism built (closed when
// replaced) from pinned pools the caller owns (never closed here).
var (
	defaultPool  atomic.Pointer[Pool]
	defaultMu    sync.Mutex
	defaultSet   bool // an explicitly pinned pool is in place
	defaultOwned bool // the stored pool was built by Default()
)

// Default returns the shared pool, creating or resizing it to GOMAXPROCS
// as needed. The fast path is one atomic load plus a GOMAXPROCS read.
func Default() *Pool {
	gmp := runtime.GOMAXPROCS(0)
	// The lock-free fast path matches on width alone (defaultSet is
	// mutex-guarded); a pinned pool whose width differs from GOMAXPROCS
	// simply pays the mutex, which only tests do.
	if p := defaultPool.Load(); p != nil && p.width == gmp {
		return p
	}
	defaultMu.Lock()
	defer defaultMu.Unlock()
	p := defaultPool.Load()
	if p != nil && (defaultSet || p.width == gmp) {
		return p
	}
	np := New(gmp)
	defaultPool.Store(np)
	if p != nil && defaultOwned {
		p.Close() // in-flight forks on p still complete (callers self-execute)
	}
	defaultOwned = true
	return np
}

// SetDefault pins p as the shared pool, returning the pool that was
// explicitly pinned before (nil if the default was auto-managed). Passing
// nil unpins: the next Default() builds a fresh GOMAXPROCS-sized pool.
// Intended for tests and tools that need a fixed width; pinned pools are
// owned (and eventually closed) by their creators, so the usual pattern is
//
//	prev := sched.SetDefault(myPool)
//	defer sched.SetDefault(prev)
func SetDefault(p *Pool) *Pool {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	stored := defaultPool.Load()
	var prevPinned *Pool
	if defaultSet {
		prevPinned = stored
	}
	if stored != nil && stored != p && defaultOwned {
		stored.Close() // auto pool being displaced; nobody else owns it
	}
	defaultSet = p != nil
	defaultOwned = false
	defaultPool.Store(p) // nil clears: Default() will rebuild on demand
	return prevPinned
}
