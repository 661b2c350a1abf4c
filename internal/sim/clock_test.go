package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"
)

// collectOrder schedules one callback per named delay, in name order, and
// returns the order they fired in.
func collectOrder(delays map[string]time.Duration) []string {
	vc := NewVirtualClock()
	var got []string
	for _, name := range []string{"a", "b", "c", "d"} {
		if d, ok := delays[name]; ok {
			vc.AfterFunc(d, func() { got = append(got, name) })
		}
	}
	vc.Drain()
	return got
}

func TestVirtualClockFiresInTimeOrder(t *testing.T) {
	got := collectOrder(map[string]time.Duration{
		"a": 300 * time.Millisecond,
		"b": 100 * time.Millisecond,
		"c": 200 * time.Millisecond,
	})
	if fmt.Sprint(got) != "[b c a]" {
		t.Fatalf("firing order %v, want [b c a]", got)
	}
}

func TestVirtualClockTiesFireInScheduleOrder(t *testing.T) {
	got := collectOrder(map[string]time.Duration{
		"a": 50 * time.Millisecond,
		"b": 50 * time.Millisecond,
		"c": 50 * time.Millisecond,
		"d": 50 * time.Millisecond,
	})
	if fmt.Sprint(got) != "[a b c d]" {
		t.Fatalf("tie order %v, want schedule order [a b c d]", got)
	}
}

func TestVirtualClockAdvancesNoRealTime(t *testing.T) {
	vc := NewVirtualClock()
	start := vc.Now()
	realStart := time.Now()
	fired := false
	vc.AfterFunc(24*time.Hour, func() { fired = true })
	vc.Drain()
	if !fired {
		t.Fatal("callback did not fire")
	}
	if got := vc.Since(start); got != 24*time.Hour {
		t.Fatalf("virtual elapsed %v, want 24h", got)
	}
	if real := time.Since(realStart); real > 2*time.Second {
		t.Fatalf("simulating 24h took %v of real time", real)
	}
}

// TestVirtualClockDeadlineWinsTies: a callback scheduled mid-Wait, from an
// earlier callback, to land exactly on the Wait deadline fires after it.
func TestVirtualClockDeadlineWinsTies(t *testing.T) {
	vc := NewVirtualClock()
	deadline := vc.Now().Add(100 * time.Millisecond)
	fired := false
	vc.AfterFunc(40*time.Millisecond, func() {
		vc.AfterFunc(60*time.Millisecond, func() { fired = true })
	})
	if vc.Wait(func() bool { return fired }, deadline) {
		t.Fatal("event at the deadline should lose the tie to the deadline")
	}
	if got := vc.Now(); !got.Equal(deadline) {
		t.Fatalf("clock at %v, want the deadline %v", got, deadline)
	}
}

// TestVirtualClockAfter: a callback due before the Wait deadline fires,
// Wait returns true, and the clock stands at the callback's instant.
func TestVirtualClockAfter(t *testing.T) {
	vc := NewVirtualClock()
	fired := false
	vc.AfterFunc(time.Second, func() { fired = true })
	if !vc.Wait(func() bool { return fired }, vc.Now().Add(2*time.Second)) {
		t.Fatal("callback did not fire before the 2s deadline")
	}
	if got := vc.Since(epoch); got != time.Second {
		t.Fatalf("callback fired at +%v, want +1s", got)
	}
}

// TestVirtualClockNestedTiesInScheduleOrder: callbacks due at one instant
// fire in the order they were scheduled, whether scheduled up front or
// from inside an earlier callback.
func TestVirtualClockNestedTiesInScheduleOrder(t *testing.T) {
	const at = 100 * time.Millisecond
	vc := NewVirtualClock()
	var order []string
	vc.AfterFunc(at, func() { order = append(order, "f1") })
	vc.AfterFunc(0, func() {
		// Runs at t=0, after f2 was scheduled: f3 is scheduled third.
		vc.AfterFunc(at, func() { order = append(order, "f3") })
	})
	vc.AfterFunc(at, func() { order = append(order, "f2") })
	vc.Drain()
	if got := fmt.Sprint(order); got != "[f1 f2 f3]" {
		t.Fatalf("firing order %s, want [f1 f2 f3]", got)
	}
	if got := vc.Since(epoch); got != at {
		t.Fatalf("fired at +%v, want +%v", got, at)
	}
}

// TestVirtualClockAfterFuncLosesDeadlineTie: an AfterFunc due exactly at a
// Wait deadline fires after the deadline, and Drain still runs it.
func TestVirtualClockAfterFuncLosesDeadlineTie(t *testing.T) {
	vc := NewVirtualClock()
	deadline := vc.Now().Add(100 * time.Millisecond)
	fired := false
	vc.AfterFunc(100*time.Millisecond, func() { fired = true })
	if vc.Wait(func() bool { return fired }, deadline) {
		t.Fatal("AfterFunc at the deadline should lose the tie to the deadline")
	}
	if fired {
		t.Fatal("AfterFunc ran before the deadline fired")
	}
	if got := vc.Now(); !got.Equal(deadline) {
		t.Fatalf("clock at %v, want the deadline %v", got, deadline)
	}
	vc.Drain()
	if !fired {
		t.Fatal("Drain did not run the AfterFunc left at the deadline")
	}
}

// TestVirtualClockDrainRunsAfterFuncs: Drain runs every pending AfterFunc,
// including ones scheduled by other callbacks while it drains, in time
// order, with no Wait caller in between.
func TestVirtualClockDrainRunsAfterFuncs(t *testing.T) {
	vc := NewVirtualClock()
	var order []string
	vc.AfterFunc(2*time.Second, func() { order = append(order, "late") })
	vc.AfterFunc(time.Second, func() {
		order = append(order, "early")
		vc.AfterFunc(3*time.Second, func() { order = append(order, "chained") })
	})
	vc.Drain()
	if got := fmt.Sprint(order); got != "[early late chained]" {
		t.Fatalf("drain ran %s, want [early late chained]", got)
	}
	if got := vc.Since(epoch); got != 4*time.Second {
		t.Fatalf("drained to +%v, want +4s", got)
	}
}

// TestEventHeapPopsMinimum: under any interleaving of pushes and pops, the
// typed heap pops the (time, sequence)-least pending event, checked
// against a linear scan.
func TestEventHeapPopsMinimum(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var h eventHeap
	var pending []event
	var seq uint64
	for i := 0; i < 20_000; i++ {
		if len(pending) == 0 || rng.IntN(5) < 3 {
			seq++
			ev := event{at: time.Duration(rng.IntN(64)), seq: seq}
			h.push(ev)
			pending = append(pending, ev)
			continue
		}
		least := 0
		for j := range pending {
			if pending[j].before(&pending[least]) {
				least = j
			}
		}
		got, want := h.pop(), pending[least]
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("step %d: popped (%v, %d), want (%v, %d)", i, got.at, got.seq, want.at, want.seq)
		}
		pending = append(pending[:least], pending[least+1:]...)
	}
	if len(h) != len(pending) {
		t.Fatalf("heap holds %d events, want %d", len(h), len(pending))
	}
}

// TestAfterFuncAndWaitAllocateNothing: once the heap has grown to its
// working size, scheduling a prebuilt callback and the Wait that fires it
// allocate nothing — a simulated client update costs no garbage on the
// clock side.
func TestAfterFuncAndWaitAllocateNothing(t *testing.T) {
	vc := NewVirtualClock()
	fired := false
	fire := func() { fired = true }
	poll := func() bool {
		if fired {
			fired = false
			return true
		}
		return false
	}
	step := func() {
		vc.AfterFunc(time.Millisecond, fire)
		if !vc.Wait(poll, time.Time{}) {
			t.Fatal("Wait returned without firing the callback")
		}
	}
	step() // warm-up: the heap's backing array grows once
	if got := testing.AllocsPerRun(1000, step); got != 0 {
		t.Fatalf("AfterFunc + Wait allocated %v objects per event, want 0", got)
	}
}

func TestVirtualClockDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Wait with nothing to advance and no deadline must panic")
		}
	}()
	NewVirtualClock().Wait(func() bool { return false }, time.Time{})
}
