package metrics

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAccuracy(t *testing.T) {
	acc, err := Accuracy([]int{1, 0, 1, 1}, []int{1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.75 {
		t.Fatalf("accuracy %v, want 0.75", acc)
	}
}

func TestAccuracyErrors(t *testing.T) {
	if _, err := Accuracy([]int{1}, []int{1, 0}); !errors.Is(err, ErrLength) {
		t.Fatalf("want ErrLength, got %v", err)
	}
	if _, err := Accuracy(nil, nil); err == nil {
		t.Fatal("want error for empty input")
	}
}

func TestCurve(t *testing.T) {
	c := &Curve{Name: "loss"}
	if !math.IsNaN(c.Last()) || !math.IsNaN(c.First()) || !math.IsNaN(c.Min()) {
		t.Fatal("empty curve should be NaN")
	}
	c.Add(0, 10.7)
	c.Add(1, 5.0)
	c.Add(2, 3.5)
	if c.First() != 10.7 || c.Last() != 3.5 || c.Min() != 3.5 {
		t.Fatalf("curve stats %v %v %v", c.First(), c.Last(), c.Min())
	}
	if !strings.Contains(c.String(), "loss") {
		t.Fatalf("String() = %q", c.String())
	}
}

func TestASCIIPlot(t *testing.T) {
	a := &Curve{Name: "a"}
	b := &Curve{Name: "b"}
	for i := 0; i < 10; i++ {
		a.Add(i, 10-float64(i))
		b.Add(i, 10-0.5*float64(i))
	}
	plot := ASCIIPlot([]*Curve{a, b}, 40, 8)
	if plot == "" {
		t.Fatal("empty plot")
	}
	if !strings.Contains(plot, "* = a") || !strings.Contains(plot, "o = b") {
		t.Fatalf("legend missing:\n%s", plot)
	}
	if ASCIIPlot(nil, 40, 8) != "" {
		t.Fatal("nil curves should render nothing")
	}
	flat := &Curve{Name: "flat"}
	flat.Add(0, 1)
	flat.Add(1, 1)
	if ASCIIPlot([]*Curve{flat}, 40, 8) != "" {
		t.Fatal("flat curve cannot be scaled; expect empty plot")
	}
}

func TestTiming(t *testing.T) {
	tm := NewTiming("epoch")
	if tm.Mean() != 0 || tm.Max() != 0 || tm.Count() != 0 {
		t.Fatal("empty timing should be zero")
	}
	tm.Add(2 * time.Second)
	tm.Add(4 * time.Second)
	if tm.Mean() != 3*time.Second {
		t.Fatalf("mean %v", tm.Mean())
	}
	if tm.Max() != 4*time.Second {
		t.Fatalf("max %v", tm.Max())
	}
	if !strings.Contains(tm.String(), "epoch") {
		t.Fatalf("String() = %q", tm.String())
	}
}

// TestTimingConcurrentAdd: federated clients record epochs from their own
// goroutines while a reader summarizes; no sample may be lost.
func TestTimingConcurrentAdd(t *testing.T) {
	const writers, each = 8, 500
	tm := NewTiming("epoch")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tm.Add(time.Millisecond)
				if i%100 == 0 {
					_ = tm.String()
				}
			}
		}()
	}
	wg.Wait()
	if tm.Total() != writers*each || tm.Mean() != time.Millisecond {
		t.Fatalf("total %d mean %v, want %d samples of 1ms", tm.Total(), tm.Mean(), writers*each)
	}
}
