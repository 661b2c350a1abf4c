package main

import (
	"time"

	"clinfl/internal/fl"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

// The wrappers below sit on the injection points the product already
// exposes (fl.Executor, fl.Aggregator, the Validate hook,
// ServerConfig.Listener, ClientConfig.Dialer). They are installed only in
// the traced run; the untraced run hands the product its own types.

// Span names recorded by the wrappers.
const (
	spanRound     = "round"
	spanExecutor  = "fl.executor"
	spanAggregate = "fl.aggregate"
	spanValidate  = "model.validate"
	spanScatter   = "fl.server.scatter"
	spanGather    = "fl.server.gather"
	spanWrite     = "transport.write"
	spanRead      = "transport.read"
	spanTurn      = "fl.client.turnaround"
)

// tracedExecutor records one span per ExecuteRound.
type tracedExecutor struct {
	fl.Executor
	rec *Recorder
}

func (e tracedExecutor) ExecuteRound(round int, global map[string]*tensor.Matrix) (*fl.ClientUpdate, error) {
	start := time.Now()
	u, err := e.Executor.ExecuteRound(round, global)
	e.rec.Add(spanExecutor, round, e.Name(), start, time.Now())
	return u, err
}

// traceExecutors wraps each executor when rec is non-nil.
func traceExecutors(execs []fl.Executor, rec *Recorder) []fl.Executor {
	if rec == nil {
		return execs
	}
	out := make([]fl.Executor, len(execs))
	for i, e := range execs {
		out[i] = tracedExecutor{Executor: e, rec: rec}
	}
	return out
}

// tracedAggregator records one span per Aggregate, attributed to the
// round the updates carry.
type tracedAggregator struct {
	fl.Aggregator
	rec *Recorder
}

func (a tracedAggregator) Aggregate(updates []*fl.ClientUpdate) (map[string]*tensor.Matrix, error) {
	start := time.Now()
	out, err := a.Aggregator.Aggregate(updates)
	round := -1
	if len(updates) > 0 {
		round = updates[0].Round
	}
	a.rec.Add(spanAggregate, round, "", start, time.Now())
	return out, err
}

// traceAggregator returns nil (the product's default FedAvg) untraced and
// a recording FedAvg traced.
func traceAggregator(rec *Recorder) fl.Aggregator {
	if rec == nil {
		return nil
	}
	return tracedAggregator{Aggregator: fl.FedAvg{}, rec: rec}
}

// roundMarks timestamps the Validate hook, which both the Controller and
// the Server call once at the end of every round: that is the only round
// boundary visible from outside the product. It runs in traced and
// untraced runs alike so both do the same work. The product calls the hook
// from the goroutine that runs the federation, and the marks are read after
// that run returns, so they need no lock.
type roundMarks struct {
	start []time.Time // hook entered
	end   []time.Time // hook returned
}

// hook wraps score (nil: constant 0) into a Validate function.
func (m *roundMarks) hook(rec *Recorder, score func(map[string]*tensor.Matrix) (float64, error)) func(map[string]*tensor.Matrix) (float64, error) {
	return func(w map[string]*tensor.Matrix) (float64, error) {
		start := time.Now()
		var s float64
		var err error
		if score != nil {
			s, err = score(w)
		}
		end := time.Now()
		round := len(m.end)
		m.start = append(m.start, start)
		m.end = append(m.end, end)
		if score != nil {
			rec.Add(spanValidate, round, "", start, end)
		}
		return s, err
	}
}

// validateSeconds lists the time spent inside the hook, per round.
func (m *roundMarks) validateSeconds() []float64 {
	out := make([]float64, len(m.end))
	for i := range out {
		out[i] = m.end[i].Sub(m.start[i]).Seconds()
	}
	return out
}

// addRoundSpans synthesises one "round" span per round — from the end of
// the previous round's hook (firstStart for round 0) to the end of this
// round's hook — and makes it the parent of the round's other spans.
func (m *roundMarks) addRoundSpans(rec *Recorder, firstStart time.Time) {
	start := firstStart
	for r, end := range m.end {
		rec.AddRound(r, start, end)
		start = end
	}
}

// tracedListener hands out connections that record server-side spans.
type tracedListener struct {
	transport.MessageListener
	rec *Recorder
}

func (l tracedListener) AcceptConn() (transport.MessageConn, error) {
	c, err := l.MessageListener.AcceptConn()
	if err != nil {
		return nil, err
	}
	return &tracedConn{MessageConn: c, rec: l.rec, server: true}, nil
}

// tracedConn records a span per Write and Read. Server-side spans are
// named transport.write / transport.read and carry the message's round
// for task and update messages; client-side it records the turnaround
// from a task's Read returning to the update's Write returning. The
// product uses one reader and one writer goroutine per connection, and on
// a client they are the same goroutine, so taskAt needs no lock.
type tracedConn struct {
	transport.MessageConn
	rec    *Recorder
	server bool
	site   string
	taskAt time.Time
	// onAck, when set, sees the time a registration ack arrived.
	onAck func(time.Time)
}

func roundOf(m *transport.Message) int {
	if m.Type == transport.MsgTask || m.Type == transport.MsgUpdate {
		return m.Round
	}
	return -1
}

func (c *tracedConn) Write(m *transport.Message) error {
	start := time.Now()
	err := c.MessageConn.Write(m)
	end := time.Now()
	switch {
	case c.server:
		c.rec.Add(spanWrite, roundOf(m), m.Type.String(), start, end)
	case m.Type == transport.MsgUpdate:
		c.rec.Add(spanTurn, m.Round, c.site, c.taskAt, end)
	}
	return err
}

func (c *tracedConn) Read() (*transport.Message, error) {
	start := time.Now()
	m, err := c.MessageConn.Read()
	end := time.Now()
	if err != nil {
		return m, err
	}
	switch {
	case c.server:
		c.rec.Add(spanRead, roundOf(m), m.Sender, start, end)
	case m.Type == transport.MsgTask:
		c.taskAt = end
	case m.Type == transport.MsgRegisterAck && c.onAck != nil:
		c.onAck(end)
	}
	return m, err
}

// addScatterGather derives, per round, the scatter span (first task write
// start to last task write end) and the gather span (last task write end
// to last update read return) from the server-side connection spans, and
// nests the writes under scatter and the reads under gather. Call it
// before the round spans are added, so they adopt scatter and gather.
func addScatterGather(rec *Recorder) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	type window struct {
		firstWrite, lastWrite, lastRead int64
		seen                            bool
	}
	rounds := make(map[int]*window)
	for _, s := range rec.spans {
		if s.Round < 0 || s.Parent != 0 || (s.Name != spanWrite && s.Name != spanRead) {
			continue
		}
		w := rounds[s.Round]
		if w == nil {
			w = &window{}
			rounds[s.Round] = w
		}
		switch s.Name {
		case spanWrite:
			if !w.seen || s.StartNS < w.firstWrite {
				w.firstWrite = s.StartNS
			}
			if s.EndNS > w.lastWrite {
				w.lastWrite = s.EndNS
			}
			w.seen = true
		case spanRead:
			if s.EndNS > w.lastRead {
				w.lastRead = s.EndNS
			}
		}
	}
	at := func(ns int64) time.Time { return rec.t0.Add(time.Duration(ns)) }
	type pair struct{ scatter, gather int }
	ids := make(map[int]pair, len(rounds))
	for r, w := range rounds {
		if w.seen && w.lastRead >= w.lastWrite {
			ids[r] = pair{
				scatter: rec.addLocked(spanScatter, 0, r, "", at(w.firstWrite), at(w.lastWrite)),
				gather:  rec.addLocked(spanGather, 0, r, "", at(w.lastWrite), at(w.lastRead)),
			}
		}
	}
	for i := range rec.spans {
		s := &rec.spans[i]
		p, ok := ids[s.Round]
		if !ok || s.Parent != 0 {
			continue
		}
		switch s.Name {
		case spanWrite:
			s.Parent = p.scatter
		case spanRead:
			s.Parent = p.gather
		}
	}
}
