package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// sumBody accumulates the indices it was handed, atomically, so tests can
// verify exactly-once coverage of [0, n) under any participant schedule.
type sumBody struct {
	sum  atomic.Int64
	hits []atomic.Int32
}

func (b *sumBody) Run(lo, hi int) {
	var s int64
	for i := lo; i < hi; i++ {
		s += int64(i)
		b.hits[i].Add(1)
	}
	b.sum.Add(s)
}

func expectCoverage(t *testing.T, b *sumBody, n int) {
	t.Helper()
	want := int64(n) * int64(n-1) / 2
	if got := b.sum.Load(); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	for i := range b.hits {
		if c := b.hits[i].Load(); c != 1 {
			t.Fatalf("item %d executed %d times, want exactly once", i, c)
		}
	}
}

// TestParallelForCoversRangeExactlyOnce drives ParallelFor across widths
// and loop shapes, asserting each item runs exactly once.
func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		p := New(width)
		for _, n := range []int{1, 7, 64, 1000, 4096} {
			// Large per-item cost forces the parallel path; tiny cost
			// forces inline. Both must cover the range exactly once.
			for _, flops := range []int{1, 1 << 12, 1 << 18} {
				b := &sumBody{hits: make([]atomic.Int32, n)}
				p.ParallelFor(n, flops, b)
				expectCoverage(t, b, n)
			}
		}
		p.Close()
	}
}

// TestParallelForReuseIsStable hammers one pool with many sequential jobs
// so recycled job state (cursors, channels, tickets) is re-exercised.
func TestParallelForReuseIsStable(t *testing.T) {
	p := New(4)
	defer p.Close()
	for iter := 0; iter < 200; iter++ {
		n := 50 + iter
		b := &sumBody{hits: make([]atomic.Int32, n)}
		p.ParallelFor(n, 1<<13, b)
		expectCoverage(t, b, n)
	}
}

// TestParallelForConcurrentCallers models federated clients sharing one
// pool: several goroutines fork jobs simultaneously and every job must
// still complete exactly.
func TestParallelForConcurrentCallers(t *testing.T) {
	p := New(4)
	defer p.Close()
	const callers = 6
	var wg sync.WaitGroup
	errs := make([]string, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				n := 128 + c
				b := &sumBody{hits: make([]atomic.Int32, n)}
				p.ParallelFor(n, 1<<13, b)
				want := int64(n) * int64(n-1) / 2
				if b.sum.Load() != want {
					errs[c] = "bad sum"
					return
				}
				for i := range b.hits {
					if b.hits[i].Load() != 1 {
						errs[c] = "item not run exactly once"
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for c, e := range errs {
		if e != "" {
			t.Fatalf("caller %d: %s", c, e)
		}
	}
}

// nestBody is a loop body that forks a nested ParallelFor per chunk,
// exercising the worker-reentrancy path (a kernel forked from inside
// another pool job nests on the same pool).
type nestBody struct {
	pool  *Pool
	inner *sumBody
	n     int
}

func (b *nestBody) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		b.pool.ParallelFor(b.n, 1<<13, b.inner)
	}
}

// TestNestedParallelForDoesNotDeadlock nests forks two deep on a small
// pool; self-execution by the forking caller must guarantee progress.
func TestNestedParallelForDoesNotDeadlock(t *testing.T) {
	p := New(4)
	defer p.Close()
	const outer, inner = 8, 256
	b := &nestBody{pool: p, inner: &sumBody{hits: make([]atomic.Int32, inner)}, n: inner}
	p.ParallelFor(outer, 1<<18, b)
	want := int64(outer) * int64(inner) * int64(inner-1) / 2
	if got := b.inner.sum.Load(); got != want {
		t.Fatalf("nested sum = %d, want %d", got, want)
	}
}

// TestParallelForZeroAllocSteadyState pins the satellite invariant: after
// warmup, the pooled ParallelFor path allocates nothing — jobs, cursors
// and completion channels are all recycled.
func TestParallelForZeroAllocSteadyState(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 2048
	b := &sumBody{hits: make([]atomic.Int32, n)}
	run := func() { p.ParallelFor(n, 1<<12, b) }
	for i := 0; i < 20; i++ {
		run() // warmup: grow the job free list to its working size
	}
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("steady-state ParallelFor allocated %v times, want 0", allocs)
	}
}

// TestDefaultTracksGOMAXPROCS checks the shared pool resizes when
// GOMAXPROCS changes (the -cpu 1,2,4 bench matrix relies on this).
func TestDefaultTracksGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	runtime.GOMAXPROCS(2)
	if w := Default().Size(); w != 2 {
		t.Fatalf("Default width %d at GOMAXPROCS 2", w)
	}
	runtime.GOMAXPROCS(3)
	if w := Default().Size(); w != 3 {
		t.Fatalf("Default width %d at GOMAXPROCS 3", w)
	}
}

// TestSetDefaultPinsPool checks an explicitly pinned pool survives
// GOMAXPROCS churn until unpinned.
func TestSetDefaultPinsPool(t *testing.T) {
	pinned := New(2)
	defer pinned.Close()
	defer SetDefault(SetDefault(pinned))
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	runtime.GOMAXPROCS(old + 1)
	if Default() != pinned {
		t.Fatal("pinned default pool was replaced by a GOMAXPROCS change")
	}
}
