package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Spans are recorded
// from the benchmark's own wrappers around the product's injection
// points; the product itself is not instrumented. Spans of one round
// share Round, and Parent links a span to the span that covers it.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: no parent
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Round    int    `json:"round"` // -1: outside any round
	Site     string `json:"site,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced run: every method is a no-op, so call sites need no
// branches and the untraced path pays one nil check.
type Recorder struct {
	workload string
	t0       time.Time
	// on gates recording so the same wrappers serve the untimed warm-up
	// (off) and the timed section (on).
	on atomic.Bool

	mu    sync.Mutex
	spans []Span
	// roundBase is added to every recorded round id, so that the rounds
	// of several federations run back to back in one workload stay
	// distinct in the trace.
	roundBase int
}

// NewRecorder returns a recorder, initially off, whose span clock begins
// now.
func NewRecorder(workload string) *Recorder {
	return &Recorder{workload: workload, t0: time.Now()}
}

// Enable switches recording on or off; a nil recorder stays off.
func (r *Recorder) Enable(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// SetRoundBase offsets the round ids of everything recorded from now on.
func (r *Recorder) SetRoundBase(base int) {
	if r != nil {
		r.mu.Lock()
		r.roundBase = base
		r.mu.Unlock()
	}
}

// Add records one finished, so far parentless span; a nil or switched-off
// recorder drops it. round is relative to the current round base; negative
// means outside any round.
func (r *Recorder) Add(name string, round int, site string, start, end time.Time) {
	if r == nil || !r.on.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if round >= 0 {
		round += r.roundBase
	}
	r.addLocked(name, 0, round, site, start, end)
}

// addLocked appends a span whose round id is already absolute.
func (r *Recorder) addLocked(name string, parent, round int, site string, start, end time.Time) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Name: name, Workload: r.workload, Round: round, Site: site,
		StartNS: start.Sub(r.t0).Nanoseconds(), EndNS: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// AddRound records the span of one whole round (round relative to the
// current base) and makes it the parent of the round's parentless spans.
func (r *Recorder) AddRound(round int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	round += r.roundBase
	parent := r.addLocked(spanRound, 0, round, "", start, end)
	for i := range r.spans {
		s := &r.spans[i]
		if s.Round == round && s.Parent == 0 && s.ID != parent {
			s.Parent = parent
		}
	}
}

// WriteFile dumps the spans as a JSON array.
func (r *Recorder) WriteFile(path string) error {
	blob, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Children may nest, overlap
// one another (four sites training concurrently under one round) or stick
// out past the parent; coverage is the union of the child intervals
// clipped to the parent, so overlapped time is subtracted once.
func selfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered int64
		edge := s.StartNS // everything before edge is already accounted for
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// spanStats groups recorded spans by name for the per-layer reductions.
type spanStats map[string][]Span

func newSpanStats(spans []Span) spanStats {
	st := make(spanStats)
	for _, s := range spans {
		st[s.Name] = append(st[s.Name], s)
	}
	return st
}

// total sums the durations of every in-round span with the given name.
func (st spanStats) total(name string) time.Duration {
	var d time.Duration
	for _, s := range st[name] {
		if s.Round >= 0 {
			d += s.Dur()
		}
	}
	return d
}

// durations lists the in-round durations of the named span, in seconds.
func (st spanStats) durations(name string) []float64 {
	var out []float64
	for _, s := range st[name] {
		if s.Round >= 0 {
			out = append(out, s.Dur().Seconds())
		}
	}
	return out
}

// maxPerRound sums, over rounds, the longest span of that name in the round.
func (st spanStats) maxPerRound(name string) time.Duration {
	longest := make(map[int]time.Duration)
	for _, s := range st[name] {
		if s.Round >= 0 && s.Dur() > longest[s.Round] {
			longest[s.Round] = s.Dur()
		}
	}
	var d time.Duration
	for _, v := range longest {
		d += v
	}
	return d
}
