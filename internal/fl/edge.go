package fl

import (
	"context"
	"errors"
	"fmt"
	"time"

	"clinfl/internal/fl/hier"
	"clinfl/internal/provision"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

// EdgeConfig configures an edge aggregator: a tier node that fronts a
// shard of clients over the ordinary FL wire protocol and forwards one
// merged partial per round to its parent (the root server or another
// edge). Leaves talk to an edge exactly as they would to the root — the
// standard fl.Client needs no changes — and the parent sees the edge as
// one client whose MsgUpdate payload is an encoded hier.Partial.
type EdgeConfig struct {
	// Name identifies the edge to its parent.
	Name string
	// Token is the admission token presented to the parent.
	Token string
	// DialParent opens the upstream connection; it is redialled, presenting
	// the edge's session token, whenever that connection is lost.
	DialParent func() (transport.MessageConn, error)
	// Listener accepts the downstream shard's connections.
	Listener transport.MessageListener
	// ExpectedClients is the shard size; registration blocks until all
	// have joined.
	ExpectedClients int
	// RegisterTimeout bounds the whole registration phase (0 = 30s).
	RegisterTimeout time.Duration
	// VerifyToken admits downstream clients. It is called concurrently, once
	// per connecting peer on that peer's own goroutine.
	VerifyToken func(name, token string) bool
	// RoundDeadline cuts the downstream gather; stragglers stay tasked and
	// their late replies are dropped when they surface (0 = wait for all;
	// negative is refused).
	RoundDeadline time.Duration
	// MinClients is the quorum below which the edge reports the round as
	// failed to its parent instead of sending a thin partial. 0 is a floor
	// of one update, as on ControllerConfig and ServerConfig; at most
	// ExpectedClients.
	MinClients int
	// Logf, when set, receives progress logging.
	Logf func(string, ...any)
}

// EdgeResult summarizes a completed edge run.
type EdgeResult struct {
	// FinalWeights is the converged global model broadcast by the root.
	FinalWeights map[string]*tensor.Matrix
	// Rounds is how many rounds the edge aggregated.
	Rounds int
	// TierBytesUp is the total encoded-partial bytes this edge sent to
	// its parent.
	TierBytesUp int64
}

// Edge is a running edge aggregator, composed of the federation's ordinary
// parts: downstream it is a tier-enabled Server's wire backend (sessions,
// reconnect, codec negotiation, the payload gates) whose shard gather is
// one engine.runRound per parent task (checkUpdate, deadline and quorum
// rules); upstream it is a Client (session resume, backoff, ping/pong)
// whose task server is that round. Its per-round resident aggregation
// state is one hier.Partial — O(model), independent of shard size.
type Edge struct {
	down relay
	up   *Client
	sink edgeSink
	res  EdgeResult
}

// relay is the Server wire backend with the one difference an edge needs:
// the round's task payload is the parent's, passed on verbatim — a lossy
// downlink codec must never be applied twice — not an encoding of the model.
type relay struct {
	*Server
	payload []byte
}

func (r *relay) begin(round int, _ map[string]*tensor.Matrix) error {
	r.round, r.blob = round, r.payload
	return nil
}

// edgeSink is the tier sink of a node below the root: finalize hands the
// merged partial to the uplink, the round's failures copied in so the
// parent records them, instead of dividing it into a model.
type edgeSink struct {
	tierSink
	partial *hier.Partial
}

func (s *edgeSink) finalize(round int, global map[string]*tensor.Matrix, _ []*ClientUpdate, rec *RoundRecord) (map[string]*tensor.Matrix, error) {
	p, err := s.merge(round, rec)
	if err != nil {
		return nil, err
	}
	for _, f := range rec.Failures {
		p.Fail(f)
	}
	s.partial = p
	return global, nil
}

// NewEdge validates the configuration and assembles the edge from a Server
// over cfg.Listener and a Client over cfg.DialParent; the Server refuses a
// bad round setting by name.
func NewEdge(cfg EdgeConfig) (*Edge, error) {
	switch {
	case cfg.Name == "":
		return nil, errors.New("fl: edge needs a Name")
	case cfg.DialParent == nil:
		return nil, errors.New("fl: edge needs DialParent")
	case cfg.Listener == nil:
		return nil, errors.New("fl: edge needs a Listener")
	}
	logf := func(format string, args ...any) {
		if cfg.Logf != nil {
			cfg.Logf("edge "+cfg.Name+": "+format, args...)
		}
	}
	srv, err := NewServer(ServerConfig{
		Listener: cfg.Listener, ExpectedClients: cfg.ExpectedClients,
		RegisterTimeout: cfg.RegisterTimeout, VerifyToken: cfg.VerifyToken,
		RoundDeadline: cfg.RoundDeadline, MinClients: cfg.MinClients,
		Tier: true, Logf: logf,
	}, &provision.StartupKit{Role: provision.RoleServer, Name: cfg.Name})
	if err != nil {
		return nil, err
	}
	up, err := newClient(ClientConfig{Dialer: cfg.DialParent, Reconnect: true, Logf: logf},
		&provision.StartupKit{Role: provision.RoleClient, Name: cfg.Name, Token: cfg.Token})
	if err != nil {
		return nil, err
	}
	e := &Edge{down: relay{Server: srv}, up: up}
	// The Server's engine, re-pointed at the two edge overrides.
	srv.eng.be, srv.eng.sink = &e.down, &e.sink
	up.serve = e.serveTask
	return e, nil
}

// Run registers the shard, joins the parent, and serves the parent's rounds
// until it broadcasts MsgFinish, which the edge passes on to its shard. It
// closes the listener and every connection on the way out.
func (e *Edge) Run() (*EdgeResult, error) {
	defer e.down.Close()
	if err := e.down.acceptClients(); err != nil {
		return nil, err
	}
	fin, err := e.up.run()
	if err != nil {
		return nil, err
	}
	e.down.broadcast(&transport.Message{Type: transport.MsgFinish, Sender: e.down.kit.Name, Payload: fin.Payload})
	if len(fin.Payload) > 0 {
		if e.res.FinalWeights, err = DecodeWeights(fin.Payload); err != nil {
			return nil, fmt.Errorf("fl: edge %s: decode final model: %w", e.down.kit.Name, err)
		}
	}
	return &e.res, nil
}

// serveTask is the upstream client's task server: one round of the engine
// over the shard, answered with the encoded partial. A round that fails
// (below quorum, nobody idle) is reported to the parent like any client's
// failed round.
func (e *Edge) serveTask(task *transport.Message, global map[string]*tensor.Matrix) ([]byte, int, float64, error) {
	e.down.payload = task.Payload
	rec := RoundRecord{Round: task.Round}
	if _, err := e.down.eng.runRound(context.Background(), global, nil, &rec); err != nil {
		return nil, 0, 0, err
	}
	p := e.sink.partial
	blob, err := hier.EncodePartial(p)
	if err != nil {
		return nil, 0, 0, err
	}
	e.res.Rounds++
	e.res.TierBytesUp += int64(len(blob))
	return blob, clampSamples(p.Weight()), p.MeanLoss(), nil
}
