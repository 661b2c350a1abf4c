package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"
)

// collectOrder runs n actors with the given virtual sleeps and returns the
// order their completions were observed by a driver Wait loop.
func collectOrder(t *testing.T, sleeps map[string]time.Duration) []string {
	t.Helper()
	vc := NewVirtualClock()
	done := make(chan string, len(sleeps))
	// Spawn in deterministic name order.
	names := []string{"a", "b", "c", "d"}
	for _, name := range names {
		d, ok := sleeps[name]
		if !ok {
			continue
		}
		name, d := name, d
		vc.Go(func() {
			vc.Sleep(d)
			done <- name
		})
	}
	var got []string
	for len(got) < len(sleeps) {
		var v string
		if !vc.Wait(func() bool {
			select {
			case v = <-done:
				return true
			default:
				return false
			}
		}, time.Time{}) {
			t.Fatal("Wait returned deadline with zero deadline")
		}
		got = append(got, v)
	}
	return got
}

func TestVirtualClockFiresInTimeOrder(t *testing.T) {
	got := collectOrder(t, map[string]time.Duration{
		"a": 300 * time.Millisecond,
		"b": 100 * time.Millisecond,
		"c": 200 * time.Millisecond,
	})
	want := []string{"b", "c", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion order %v, want %v", got, want)
		}
	}
}

func TestVirtualClockTiesFireInScheduleOrder(t *testing.T) {
	for run := 0; run < 20; run++ {
		got := collectOrder(t, map[string]time.Duration{
			"a": 50 * time.Millisecond,
			"b": 50 * time.Millisecond,
			"c": 50 * time.Millisecond,
			"d": 50 * time.Millisecond,
		})
		for i, want := range []string{"a", "b", "c", "d"} {
			if got[i] != want {
				t.Fatalf("run %d: tie order %v, want spawn order abcd", run, got)
			}
		}
	}
}

func TestVirtualClockAdvancesNoRealTime(t *testing.T) {
	vc := NewVirtualClock()
	start := vc.Now()
	realStart := time.Now()
	finished := false
	vc.Go(func() {
		vc.Sleep(24 * time.Hour)
		finished = true
	})
	vc.Drain()
	if !finished {
		t.Fatal("actor did not finish")
	}
	if got := vc.Since(start); got != 24*time.Hour {
		t.Fatalf("virtual elapsed %v, want 24h", got)
	}
	if real := time.Since(realStart); real > 2*time.Second {
		t.Fatalf("simulating 24h took %v of real time", real)
	}
}

func TestVirtualClockDeadlineWinsTies(t *testing.T) {
	vc := NewVirtualClock()
	deadline := vc.Now().Add(100 * time.Millisecond)
	done := make(chan struct{}, 1)
	vc.Go(func() {
		vc.Sleep(100 * time.Millisecond) // lands exactly on the deadline
		done <- struct{}{}
	})
	ok := vc.Wait(func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}, deadline)
	if ok {
		t.Fatal("event at the deadline should lose the tie to the deadline")
	}
	if got := vc.Now(); !got.Equal(deadline) {
		t.Fatalf("clock at %v, want the deadline %v", got, deadline)
	}
	vc.Drain() // let the actor finish
}

func TestVirtualClockAfter(t *testing.T) {
	vc := NewVirtualClock()
	ch := vc.After(time.Second)
	fired := false
	vc.Wait(func() bool {
		select {
		case <-ch:
			fired = true
			return true
		default:
			return false
		}
	}, vc.Now().Add(2*time.Second))
	if !fired {
		t.Fatal("After timer did not fire before the 2s deadline")
	}
	if got := vc.Since(epoch); got != time.Second {
		t.Fatalf("After fired at +%v, want +1s", got)
	}
}

// TestVirtualClockMixedKindsTieInScheduleOrder: actor wake-ups, After
// timers and AfterFunc callbacks due at one instant fire in the order they
// were scheduled, whatever their kind.
func TestVirtualClockMixedKindsTieInScheduleOrder(t *testing.T) {
	const at = 100 * time.Millisecond
	vc := NewVirtualClock()
	var order []string
	n1 := vc.After(at)
	vc.AfterFunc(at, func() { order = append(order, "f1") })
	vc.Go(func() {
		// Runs at t=0, before the AfterFunc below: its wake-up is
		// scheduled third.
		vc.Sleep(at)
		order = append(order, "actor")
	})
	var n2 <-chan time.Time
	vc.AfterFunc(0, func() {
		vc.AfterFunc(at, func() { order = append(order, "f2") })
		n2 = vc.After(at)
	})
	want := "[n1 f1 actor f2 n2]"
	vc.Wait(func() bool {
		// Wait polls after every event, so a timer's delivery is seen
		// before the next event fires.
		select {
		case <-n1:
			order = append(order, "n1")
		case <-n2:
			order = append(order, "n2")
		default:
		}
		return len(order) == 5
	}, time.Time{})
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("firing order %s, want %s", got, want)
	}
	if got := vc.Since(epoch); got != at {
		t.Fatalf("fired at +%v, want +%v", got, at)
	}
}

// TestVirtualClockAfterFuncLosesDeadlineTie: like an actor's wake-up, an
// AfterFunc due exactly at a Wait deadline fires after the deadline.
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
	var pending []*event
	var seq uint64
	for i := 0; i < 20_000; i++ {
		if len(pending) == 0 || rng.IntN(5) < 3 {
			seq++
			ev := &event{at: time.Duration(rng.IntN(64)), seq: seq}
			h.push(ev)
			pending = append(pending, ev)
			continue
		}
		least := 0
		for j, ev := range pending {
			if ev.before(pending[least]) {
				least = j
			}
		}
		if got, want := h.pop(), pending[least]; got != want {
			t.Fatalf("step %d: popped (%v, %d), want (%v, %d)", i, got.at, got.seq, want.at, want.seq)
		}
		pending = append(pending[:least], pending[least+1:]...)
	}
	if len(h) != len(pending) {
		t.Fatalf("heap holds %d events, want %d", len(h), len(pending))
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
