// Package metrics provides the evaluation measures reported in the paper:
// top-1 accuracy (Table III), loss curves over training (Fig. 2), and
// round/epoch timing summaries (Fig. 3).
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrLength is returned when prediction and label vectors disagree in size.
var ErrLength = errors.New("metrics: length mismatch")

// Accuracy returns the top-1 accuracy of preds against labels.
func Accuracy(preds, labels []int) (float64, error) {
	if len(preds) != len(labels) {
		return 0, fmt.Errorf("%w: %d preds vs %d labels", ErrLength, len(preds), len(labels))
	}
	if len(preds) == 0 {
		return 0, errors.New("metrics: empty inputs")
	}
	hit := 0
	for i, p := range preds {
		if p == labels[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(preds)), nil
}

// Point is one sample of a training curve.
type Point struct {
	Step  int
	Value float64
}

// Curve accumulates a named training trajectory (e.g. MLM loss per round,
// as plotted in Fig. 2).
type Curve struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (c *Curve) Add(step int, value float64) {
	c.Points = append(c.Points, Point{Step: step, Value: value})
}

// Last returns the final value (NaN when empty).
func (c *Curve) Last() float64 {
	if len(c.Points) == 0 {
		return math.NaN()
	}
	return c.Points[len(c.Points)-1].Value
}

// First returns the initial value (NaN when empty).
func (c *Curve) First() float64 {
	if len(c.Points) == 0 {
		return math.NaN()
	}
	return c.Points[0].Value
}

// Min returns the minimum value (NaN when empty).
func (c *Curve) Min() float64 {
	if len(c.Points) == 0 {
		return math.NaN()
	}
	m := c.Points[0].Value
	for _, p := range c.Points[1:] {
		if p.Value < m {
			m = p.Value
		}
	}
	return m
}

// String renders the curve as "name: v0 -> vN (min m)".
func (c *Curve) String() string {
	return fmt.Sprintf("%s: %.3f -> %.3f (min %.3f, %d pts)",
		c.Name, c.First(), c.Last(), c.Min(), len(c.Points))
}

// ASCIIPlot renders the curve as a small terminal chart, used by the
// experiment harness to show Fig. 2-style trajectories.
func ASCIIPlot(curves []*Curve, width, height int) string {
	if len(curves) == 0 || width < 8 || height < 2 {
		return ""
	}
	minV, maxV := math.Inf(1), math.Inf(-1)
	maxStep := 0
	for _, c := range curves {
		for _, p := range c.Points {
			minV = math.Min(minV, p.Value)
			maxV = math.Max(maxV, p.Value)
			if p.Step > maxStep {
				maxStep = p.Step
			}
		}
	}
	if math.IsInf(minV, 1) || maxV == minV {
		return ""
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := "*o+x#@%&"
	for ci, c := range curves {
		mark := marks[ci%len(marks)]
		for _, p := range c.Points {
			x := 0
			if maxStep > 0 {
				x = p.Step * (width - 1) / maxStep
			}
			y := int((maxV - p.Value) / (maxV - minV) * float64(height-1))
			grid[y][x] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8.3f ┤\n", maxV)
	for _, row := range grid {
		b.WriteString("         │")
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%8.3f └%s\n", minV, strings.Repeat("─", width))
	for ci, c := range curves {
		fmt.Fprintf(&b, "         %c = %s\n", marks[ci%len(marks)], c.Name)
	}
	return b.String()
}

// TimingWindow bounds how many samples a Timing retains: a ring buffer
// of the most recent TimingWindow observations. A long-lived flserver
// records a sample per round for the life of the process; without a
// bound the slice grows forever. Once more than TimingWindow samples
// have been recorded, Mean, Max, and the quantiles describe the
// trailing window rather than the full history (Total still counts
// every sample ever recorded).
const TimingWindow = 4096

// Timing aggregates wall-clock durations (e.g. local-epoch times for the
// Fig. 3 demonstration). Storage is bounded: see TimingWindow. It is safe
// for concurrent use — federated clients record their epochs from their
// own goroutines.
type Timing struct {
	Name    string
	mu      sync.Mutex
	samples []time.Duration // ring storage, at most TimingWindow entries
	next    int             // ring write cursor once the window is full
	total   uint64          // lifetime samples recorded
}

// NewTiming returns a named timing aggregator.
func NewTiming(name string) *Timing { return &Timing{Name: name} }

// Add records one duration, evicting the oldest retained sample once
// TimingWindow observations are held.
func (t *Timing) Add(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	if len(t.samples) < TimingWindow {
		t.samples = append(t.samples, d)
		return
	}
	t.samples[t.next] = d
	t.next = (t.next + 1) % TimingWindow
}

// Count returns the number of retained samples (saturates at
// TimingWindow).
func (t *Timing) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.samples)
}

// Total returns the lifetime number of samples recorded, including ones
// evicted from the window.
func (t *Timing) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Mean returns the mean duration (0 when empty).
func (t *Timing) Mean() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range t.samples {
		sum += d
	}
	return sum / time.Duration(len(t.samples))
}

// Max returns the longest sample (0 when empty).
func (t *Timing) Max() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var m time.Duration
	for _, d := range t.samples {
		if d > m {
			m = d
		}
	}
	return m
}

// Quantile returns the q-quantile (0 < q <= 1) of the samples using the
// nearest-rank method on a sorted copy, so straggler tails are reported
// from actual observations rather than interpolated values. Returns 0
// when empty; q outside (0, 1] is clamped.
func (t *Timing) Quantile(q float64) time.Duration {
	t.mu.Lock()
	sorted := append([]time.Duration(nil), t.samples...)
	t.mu.Unlock()
	if len(sorted) == 0 {
		return 0
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if q <= 0 {
		return sorted[0]
	}
	if q > 1 || math.IsNaN(q) {
		q = 1
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	// Ceil(q*n) can land one past the end through float rounding (e.g.
	// q just above 1 before the clamp existed, or q*n rounding up past
	// n); never index out of range.
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// P50 is the median sample.
func (t *Timing) P50() time.Duration { return t.Quantile(0.50) }

// P95 is the 95th-percentile sample (the straggler threshold the round
// deadline should clear).
func (t *Timing) P95() time.Duration { return t.Quantile(0.95) }

// P99 is the 99th-percentile sample.
func (t *Timing) P99() time.Duration { return t.Quantile(0.99) }

// String summarizes the aggregate, quantile tail included.
func (t *Timing) String() string {
	return fmt.Sprintf("%s: n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		t.Name, t.Count(), t.Mean(), t.P50(), t.P95(), t.P99(), t.Max())
}
