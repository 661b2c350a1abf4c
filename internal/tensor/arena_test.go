package tensor

import (
	"math"
	"testing"
)

func TestArenaGetZeroesRecycledMemory(t *testing.T) {
	a := NewArena()
	m := a.Get(4, 4)
	m.Fill(7)
	a.Reset()
	m2 := a.Get(4, 4)
	for _, v := range m2.Data() {
		if v != 0 {
			t.Fatal("arena handed out dirty memory after Reset")
		}
	}
}

func TestArenaReusesSlabsAndHeaders(t *testing.T) {
	a := NewArena()
	shapes := [][2]int{{3, 5}, {1, 1}, {8, 2}, {0, 4}}
	for _, s := range shapes {
		a.Get(s[0], s[1])
	}
	foot, live := a.Footprint(), a.Live()
	if live != len(shapes) {
		t.Fatalf("live = %d, want %d", live, len(shapes))
	}
	for cycle := 0; cycle < 3; cycle++ {
		a.Reset()
		if a.Live() != 0 {
			t.Fatal("Live not reset")
		}
		for _, s := range shapes {
			m := a.Get(s[0], s[1])
			if m.Rows() != s[0] || m.Cols() != s[1] {
				t.Fatalf("cycle %d: got %dx%d, want %dx%d", cycle, m.Rows(), m.Cols(), s[0], s[1])
			}
		}
		if a.Footprint() != foot {
			t.Fatalf("cycle %d: footprint grew %d -> %d", cycle, foot, a.Footprint())
		}
	}
}

func TestArenaDistinctBackingWithinCycle(t *testing.T) {
	a := NewArena()
	m1 := a.Get(2, 2)
	m2 := a.Get(2, 2)
	m1.Fill(1)
	m2.Fill(2)
	if m1.At(0, 0) != 1 || m2.At(0, 0) != 2 {
		t.Fatal("arena matrices share backing memory within a cycle")
	}
}

func TestArenaSpillsToNewSlabs(t *testing.T) {
	a := NewArena()
	// Larger than the first slab (arenaMinSlabFloats) forces a spill; a
	// request larger than any doubling step forces a dedicated slab.
	small := a.Get(1, arenaMinSlabFloats/2)
	big := a.Get(2, arenaMinSlabFloats)
	huge := a.Get(8, arenaMinSlabFloats)
	for _, m := range []*Matrix{small, big, huge} {
		if len(m.Data()) != m.Rows()*m.Cols() {
			t.Fatal("spilled matrix has wrong backing length")
		}
	}
	big.Fill(3)
	if huge.At(0, 0) != 0 {
		t.Fatal("spilled slabs overlap")
	}
	foot := a.Footprint()
	a.Reset()
	a.Get(1, arenaMinSlabFloats/2)
	a.Get(2, arenaMinSlabFloats)
	a.Get(8, arenaMinSlabFloats)
	if a.Footprint() != foot {
		t.Fatalf("same request sequence grew footprint %d -> %d", foot, a.Footprint())
	}
}

// TestArenaPoisonFillsUninit checks the arenapoison build: memory that
// GetUninit hands out, fresh or recycled, reads NaN until written.
func TestArenaPoisonFillsUninit(t *testing.T) {
	if !arenaPoison {
		t.Skip("built without the arenapoison tag")
	}
	a := NewArena()
	a.Get(3, 3).Fill(7)
	a.Reset()
	for _, m := range []*Matrix{a.GetUninit(3, 3), a.GetUninit(2, 5)} {
		for i, v := range m.Data() {
			if !math.IsNaN(v) {
				t.Fatalf("element %d of uninit memory is %v, want NaN", i, v)
			}
		}
	}
}
