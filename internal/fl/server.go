package fl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"strconv"
	"strings"
	"sync"
	"time"

	"clinfl/internal/fl/durable"
	"clinfl/internal/fl/hier"
	"clinfl/internal/metrics"
	"clinfl/internal/provision"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

// ServerConfig parameterizes the networked FL server. As with
// ControllerConfig, the zero value (plus Rounds/ExpectedClients) is the
// paper's synchronous scatter-gather; SampleFraction, MinUpdates and
// RoundDeadline make rounds straggler-tolerant, and Codec compresses the
// downlink weight payloads. The round settings mean the same as on
// ControllerConfig, and NewServer refuses a bad one by name.
type ServerConfig struct {
	// Addr is the TCP listen address (e.g. ":8443" or "127.0.0.1:0").
	Addr string
	// ExpectedClients is how many registrations to wait for before
	// starting round 0.
	ExpectedClients int
	// RegisterTimeout bounds the registration phase.
	RegisterTimeout time.Duration
	// Rounds is E, the communication-round count; 0 runs one round.
	Rounds int
	// RoundDeadline bounds one round's gather; on expiry the round
	// aggregates whatever arrived and stragglers are handled by the
	// staleness policy. 0 means no limit; Reconcile needs one.
	RoundDeadline time.Duration
	// SampleFraction tasks a random subset of idle clients each round;
	// 0 or 1 tasks them all. Values outside [0, 1], NaN included, are
	// refused.
	SampleFraction float64
	// MinUpdates, when > 0, aggregates as soon as this many updates have
	// arrived instead of waiting for every tasked client. At most
	// ExpectedClients.
	MinUpdates int
	// MinClients is the per-round quorum: a round that gathers fewer
	// successful updates fails the run. 0 is a floor of one update, so
	// deadline rounds aggregate whatever arrived. At most ExpectedClients.
	MinClients int
	// Seed drives the client-sampling stream.
	Seed int64
	// Codec names the downlink weight codec for task/finish payloads
	// ("raw", "f32", "int8"); default raw. A top-k codec is refused: it
	// would zero most of the model every client starts from, and of the
	// final model. Each client's uplink codec is its own choice,
	// negotiated at registration.
	Codec string
	// AllowTopKUplink permits clients to negotiate the top-k sparsifying
	// uplink codec. Top-k transmits full weight maps, not deltas, so
	// ~(1-fraction) of every parameter decodes as zero and averages into
	// the global model; off by default, registration falls back to raw.
	AllowTopKUplink bool
	// Aggregator combines updates (default FedAvg).
	Aggregator Aggregator
	// AsyncAggregator, when non-nil, folds stragglers' late updates into
	// the global model with staleness weighting; nil drops them.
	AsyncAggregator AsyncAggregator
	// Validate, if non-nil, scores each aggregated model for selection.
	Validate func(weights map[string]*tensor.Matrix) (float64, error)
	// VerifyToken authenticates a client's admission token (required).
	// Use (*provision.Project).VerifyToken in-process or
	// provision.TokenVerifier over a tokens file for disk-based kits. It is
	// called concurrently, once per connecting peer on that peer's own
	// goroutine, so it must be safe for concurrent use.
	VerifyToken func(name, token string) bool
	// Logf receives progress lines (default log.Printf).
	Logf func(format string, args ...any)
	// Listener, when non-nil, overrides Addr and the startup kit's TLS
	// stack with a caller-supplied transport — the simulator and the
	// fltest conformance kit pass a transport.MemNetwork here so the same
	// server logic runs over in-memory links with scripted faults.
	Listener transport.MessageListener
	// WAL, when non-nil, makes the run durable: round lifecycle events are
	// appended as they happen and group-committed by the WAL's background
	// syncer (each update as the uplink payload it arrived in, verbatim),
	// client sessions are recorded — durably, before the ack — so
	// reconnects can re-attach after a server restart, and Run resumes
	// from the WAL's recovered state — the last committed model plus any
	// open round's already-received updates.
	WAL *durable.WAL
	// Metrics, when non-nil, receives round/byte/failure/straggler/resume
	// counters, the round-duration histogram, and the connected-clients
	// gauge. Nil disables metrics at zero cost.
	Metrics *metrics.Registry
	// Reconcile, when non-nil, turns on the reconciliation control plane:
	// per-client health tracking with MsgPing/MsgPong recovery probes,
	// requeue-with-backoff of failed task assignments (send errors,
	// execution errors, dropped connections), and degradation modes for
	// mass failure. It needs a RoundDeadline, which bounds every retry. Nil
	// runs the same round loop under the null policy: one attempt per
	// assignment, no health tracking.
	Reconcile *ReconcilePolicy
	// Tier accepts partial-aggregate uplinks from fl.Edge nodes and
	// aggregates by streaming: each registered "client" may be an edge
	// fronting a shard of real clients, every accepted uplink is merged (a
	// plain client's folded) into one partial as it arrives, so the root
	// holds O(model) state however many edges or clients there are, and
	// Participants in the round record are the edge names. A mixed fleet
	// (edges plus plain clients) is supported; the tier shape is the
	// deployed Edges'. Off keeps the flat path and rejects partial
	// payloads.
	Tier bool
}

// serverClient is one registered client's connection state. Reads happen
// on a dedicated reader goroutine feeding the server inbox; writes happen
// only from the Run goroutine, so the Conn's one-reader/one-writer
// contract holds.
type serverClient struct {
	name string
	conn transport.MessageConn
	// gen counts connection generations. Each re-attach bumps it, and
	// inbox messages carry the generation their reader was started with,
	// so messages from a superseded connection are recognized as stale.
	gen int
	// taskedRound is the round the client is currently working on
	// (-1 when idle). A straggler stays tasked — and excluded from
	// sampling — until its reply or its connection error drains in.
	taskedRound int
	// dead marks a failed connection; dead clients are skipped.
	dead bool
}

// inboxMsg is one delivery to the Run goroutine: a reader's message or
// terminal connection error, or a vetted connection asking to join.
type inboxMsg struct {
	id  int
	gen int
	msg *transport.Message
	err error
	// join, when non-nil, is a connection that passed vet; the other
	// fields are unused.
	join *joinReq
}

// joinReq is a connection whose MsgRegister passed vet; admit decides on
// the Run goroutine whether and how it joins the roster.
type joinReq struct {
	name string
	// session is the session token the peer presented ("" for a first
	// registration); vet has checked that this server issued it.
	session string
	codec   string
	conn    transport.MessageConn
}

// registerReadTimeout bounds the wait for a new connection's MsgRegister,
// the lazy TLS handshake included. Each connection waits on its own vet
// goroutine, so a peer that dials and goes silent delays nobody else.
const registerReadTimeout = 5 * time.Second

// Server is the networked federation server: it terminates mutual-TLS
// connections from provisioned clients, verifies admission tokens, and
// drives the same straggler-tolerant scatter-and-gather workflow as the
// in-process Controller over the wire. The round lifecycle is the shared
// engine in round.go; the Server is its wire backend, turning task and
// probe requests into messages and inbox deliveries into events.
type Server struct {
	cfg       ServerConfig
	kit       *provision.StartupKit
	ln        transport.MessageListener
	downCodec WeightCodec
	tokenRNG  *tensor.RNG
	eng       *engine
	met       flMetrics
	inbox     chan inboxMsg
	source[inboxMsg]
	// round / blob are the task the engine's current round hands out: the
	// global model, encoded once per round into the same buffer.
	round int
	blob  []byte
	// rosterClosed is set when registration ends: from then on only a
	// client presenting its session joins, and each admitted connection
	// gets its reader at once. Run goroutine only, like the two counters
	// below.
	rosterClosed bool
	// supersededRead / supersededWritten are the framed bytes of the
	// connections re-attaches replaced, kept for the Result's wire totals.
	supersededRead, supersededWritten int64
	// ros interns each client's name at its first admission. The engine
	// may intern a name the WAL recorded before its client is back, so an
	// id can have no client yet.
	ros *roster

	// mu guards clients and sessions. Only the Run goroutine writes them;
	// vet goroutines read sessions, and Close reads clients.
	mu sync.Mutex
	// clients is indexed by roster id; nil where no client has joined.
	clients []*serverClient
	// sessions maps client name to issued session token; recovered from
	// the WAL on restart so pre-crash clients can re-attach.
	sessions map[string]string
}

// NewServer builds a server from its startup kit. It refuses a round
// setting no front end can run, naming the field, before it listens.
func NewServer(cfg ServerConfig, kit *provision.StartupKit) (*Server, error) {
	if cfg.ExpectedClients <= 0 {
		return nil, errors.New("fl: server needs ExpectedClients > 0")
	}
	if cfg.VerifyToken == nil {
		return nil, errors.New("fl: server needs a VerifyToken function")
	}
	if cfg.RegisterTimeout <= 0 {
		cfg.RegisterTimeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	rc := roundConfig{
		clients: cfg.ExpectedClients, networked: true,
		rounds: cfg.Rounds, minClients: cfg.MinClients, minUpdates: cfg.MinUpdates,
		sampleFraction: cfg.SampleFraction, deadline: cfg.RoundDeadline, seed: cfg.Seed,
		aggregator: cfg.Aggregator, async: cfg.AsyncAggregator, validate: cfg.Validate,
		// The Server runs on the wall clock: its readers are goroutines
		// that a virtual clock could not see.
		clock: RealClock(), wal: cfg.WAL, metrics: cfg.Metrics, reconcile: cfg.Reconcile,
		logf: func(format string, args ...any) { cfg.Logf("fl server: "+format, args...) },
	}
	if cfg.Tier {
		rc.tier = &TierConfig{}
	}
	if err := rc.settle(); err != nil {
		return nil, err
	}
	downCodec, err := CodecByName(cfg.Codec)
	if err != nil {
		return nil, fmt.Errorf("fl: Codec %q is not a downlink codec: raw, f32 or int8", cfg.Codec)
	}
	if _, topK := downCodec.(TopKCodec); topK {
		return nil, fmt.Errorf("fl: Codec %q is top-k, which would zero most of every task's model and of the final one; use raw, f32 or int8", cfg.Codec)
	}
	ln := cfg.Listener
	if ln == nil {
		tlsCfg, err := kit.ServerTLS()
		if err != nil {
			return nil, err
		}
		ln, err = transport.ListenMessages(cfg.Addr, tlsCfg)
		if err != nil {
			return nil, err
		}
	}
	sessions := make(map[string]string)
	if cfg.WAL != nil {
		for name, token := range cfg.WAL.Recovered().Sessions {
			sessions[name] = token
		}
	}
	s := &Server{
		cfg:       cfg,
		kit:       kit,
		ln:        ln,
		downCodec: downCodec,
		// The token stream is independent of the sampling stream so adding
		// session tokens never perturbs which clients a seeded run samples.
		tokenRNG: tensor.NewRNG(cfg.Seed + 2654435761),
		// Buffered so reader goroutines never block on a drained server:
		// a cooperative client has at most one reply outstanding (it is
		// not re-tasked until that reply drains) plus one terminal error,
		// with headroom for join deliveries.
		inbox:    make(chan inboxMsg, 4*cfg.ExpectedClients),
		ros:      newRoster(cfg.ExpectedClients),
		sessions: sessions,
	}
	s.source = source[inboxMsg]{clk: rc.clock, ch: s.inbox, normalize: s.normalize}
	s.eng = newEngine(rc, s.ros, s)
	s.met = s.eng.met
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener and all client connections.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.clients {
		if c != nil {
			_ = c.conn.Close()
		}
	}
	return err
}

// client returns the client that joined under id, nil when none has. The
// Run goroutine calls it freely; any other caller holds mu.
func (s *Server) client(id int) *serverClient {
	if id >= len(s.clients) {
		return nil
	}
	return s.clients[id]
}

// acceptClients runs the registration phase: it starts the accept loop,
// which serves the whole run, and admits joins from the inbox until
// ExpectedClients have joined or RegisterTimeout passes. Then it closes the
// roster and starts the readers.
func (s *Server) acceptClients() error {
	acceptErr := make(chan error, 1)
	go s.acceptLoop(acceptErr)
	timeout := time.NewTimer(s.cfg.RegisterTimeout)
	defer timeout.Stop()
	// Until the engine runs, every id is a joined client.
	for len(s.clients) < s.cfg.ExpectedClients {
		select {
		case in := <-s.inbox:
			s.admit(in.join) // no reader runs yet, so every delivery is a join
		case err := <-acceptErr:
			return fmt.Errorf("fl: accept: %w", err)
		case <-timeout.C:
			return fmt.Errorf("fl: registration timed out with %d/%d clients", len(s.clients), s.cfg.ExpectedClients)
		}
	}
	s.startReaders()
	return nil
}

// acceptLoop accepts connections for the whole run and vets each on its own
// goroutine. It ends, reporting why on done, when the listener fails.
func (s *Server) acceptLoop(done chan<- error) {
	for {
		conn, err := s.ln.AcceptConn()
		if err != nil {
			done <- err
			return
		}
		go s.vet(conn)
	}
}

// vet reads a new connection's MsgRegister — the Server's only reader of
// one — and checks what needs no roster: the admission token, and that a
// presented session is one this server issued or recovered from the WAL.
// A failed check is acked with its reason; a pass is posted to the inbox
// for admit.
func (s *Server) vet(conn transport.MessageConn) {
	_ = conn.SetDeadline(time.Now().Add(registerReadTimeout))
	msg, err := conn.Read()
	_ = conn.SetDeadline(time.Time{})
	if err == nil && msg.Type != transport.MsgRegister {
		err = fmt.Errorf("expected register, got %s", msg.Type)
	}
	if err != nil {
		s.cfg.Logf("fl server: dropped connection from %s: %v", conn.RemoteAddr(), err)
		_ = conn.Close()
		return
	}
	sess := msg.Meta[transport.MetaSession]
	s.mu.Lock()
	issued := s.sessions[msg.Sender]
	s.mu.Unlock()
	switch {
	case !s.cfg.VerifyToken(msg.Sender, msg.Token):
		s.refuse(conn, msg.Sender, "bad token")
	case sess != "" && sess != issued:
		s.refuse(conn, msg.Sender, "unknown session")
	default:
		s.inbox <- inboxMsg{join: &joinReq{name: msg.Sender, session: sess, codec: s.negotiateCodec(msg), conn: conn}}
	}
}

// admit settles a vetted join on the Run goroutine, which owns every
// connection write and every roster change.
//
// A first registration (no session) joins only while the roster is open
// and only under a name not yet on it; its new session token is logged to
// the WAL before the ack. A client presenting its session re-attaches at
// any time: its connection is swapped, the generation bumped (the old
// reader's deliveries become stale) and the old connection closed. A
// re-attach is returned as an evReattach carrying the round the client was
// tasked for before the swap (-1: idle) — that task went down with the old
// connection — and the ack's write error, if any. Anything else is a no-op
// event. A name joins the roster, under the next id, when it is first
// admitted; that can be mid-run, when a WAL-recovered session re-attaches.
func (s *Server) admit(j *joinReq) event {
	var c *serverClient
	if id, ok := s.ros.ids[j.name]; ok {
		c = s.client(id)
	}
	sess := j.session
	if sess == "" {
		switch {
		case c != nil:
			s.refuse(j.conn, j.name, "duplicate client")
			return event{}
		case s.rosterClosed:
			s.refuse(j.conn, j.name, "registration closed")
			return event{}
		}
		sess = fmt.Sprintf("%016x", s.tokenRNG.Rand().Int63())
		if s.cfg.WAL != nil {
			if err := s.cfg.WAL.AppendSession(j.name, sess); err != nil {
				s.refuse(j.conn, j.name, "session not logged: "+err.Error())
				return event{}
			}
		}
	}
	id := s.ros.add(j.name)
	s.mu.Lock()
	s.sessions[j.name] = sess
	if c == nil {
		c = &serverClient{name: j.name, taskedRound: -1, dead: true}
		if id >= len(s.clients) {
			s.clients = append(s.clients, make([]*serverClient, id+1-len(s.clients))...)
		}
		s.clients[id] = c
	}
	old, wasDead, wasTasked := c.conn, c.dead, c.taskedRound
	c.conn, c.dead, c.taskedRound = j.conn, false, -1
	c.gen++
	gen := c.gen
	s.mu.Unlock()
	if old != nil {
		_ = old.Close()
		s.supersededRead += old.BytesRead()
		s.supersededWritten += old.BytesWritten()
	}
	if wasDead {
		s.met.connected.Add(1)
	}
	var ev event
	if j.session != "" {
		ev = event{kind: evReattach, id: id, round: wasTasked}
	}
	if ev.err = j.conn.Write(&transport.Message{
		Type: transport.MsgRegisterAck, Sender: s.kit.Name,
		Meta: map[string]string{"accepted": "true", transport.MetaCodec: j.codec, transport.MetaSession: sess},
	}); ev.err != nil {
		s.cfg.Logf("fl server: client %q register ack: %v", j.name, ev.err)
		s.markDead(id)
		return ev
	}
	if s.rosterClosed {
		go s.readLoop(id, j.conn, gen)
	}
	if j.session != "" {
		s.met.resumes.Inc()
		s.cfg.Logf("fl server: client %q session resumed (uplink codec %s)", j.name, j.codec)
	} else {
		s.cfg.Logf("fl server: client %q registered (token ok, uplink codec %s)", j.name, j.codec)
	}
	return ev
}

// refuse acks a registration with accepted=false and its reason, under
// the key the client reads, then closes the connection.
func (s *Server) refuse(conn transport.MessageConn, name, reason string) {
	s.cfg.Logf("fl server: refused %q from %s: %s", name, conn.RemoteAddr(), reason)
	_ = conn.Write(&transport.Message{
		Type: transport.MsgRegisterAck, Sender: s.kit.Name,
		Meta: map[string]string{"accepted": "false", "reason": reason},
	})
	_ = conn.Close()
}

// negotiateCodec resolves a registration's requested uplink codec: the
// client's choice is accepted if known (and, for top-k, explicitly
// allowed), with a fallback to raw.
func (s *Server) negotiateCodec(msg *transport.Message) string {
	codecName := msg.Meta[transport.MetaCodec]
	if _, err := CodecByName(codecName); err != nil {
		s.cfg.Logf("fl server: client %q requested unknown codec %q, falling back to raw", msg.Sender, codecName)
		codecName = "raw"
	} else if codecName == "" {
		codecName = "raw"
	}
	if strings.HasPrefix(codecName, "topk") && !s.cfg.AllowTopKUplink {
		s.cfg.Logf("fl server: client %q requested top-k uplink codec %q: rejected (top-k zeroes most of a full weight map; set AllowTopKUplink to accept), falling back to raw", msg.Sender, codecName)
		codecName = "raw"
	}
	return codecName
}

// readLoop forwards conn's inbound messages (and finally its terminal
// read error) into the server inbox, tagged with the connection generation
// the reader was started under, so the Run goroutine can discard
// deliveries from a superseded connection after a session re-attach. conn
// is a parameter, never read from the shared client entry: the entry's
// conn is swapped on resume, and this reader must keep draining the
// connection it was born with.
func (s *Server) readLoop(id int, conn transport.MessageConn, gen int) {
	for {
		msg, err := conn.Read()
		if err != nil {
			s.inbox <- inboxMsg{id: id, gen: gen, err: err}
			return
		}
		s.inbox <- inboxMsg{id: id, gen: gen, msg: msg}
	}
}

// startReaders closes the roster and launches one reader goroutine per
// registered client, so a straggler's late reply is never stranded in a
// socket buffer and a dead connection is reported, not silently absent.
func (s *Server) startReaders() {
	s.rosterClosed = true
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, c := range s.clients {
		go s.readLoop(id, c.conn, c.gen)
	}
}

// clientGen returns a client's current connection generation (-1 when
// unknown).
func (s *Server) clientGen(id int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.client(id); c != nil {
		return c.gen
	}
	return -1
}

// Run performs registration then E federated rounds, returning the result.
// Meta round parameters (epochs etc.) are the clients' concern: each client
// was provisioned with its own local config.
func (s *Server) Run(initialWeights map[string]*tensor.Matrix) (*Result, error) {
	if err := s.acceptClients(); err != nil {
		return nil, err
	}
	res, err := s.eng.run(context.Background(), initialWeights)
	if err != nil {
		return nil, err
	}

	// Distribute the final model and release the clients.
	blob, err := s.downCodec.Encode(res.FinalWeights)
	if err != nil {
		return nil, err
	}
	res.History.FinishFailures = s.broadcast(&transport.Message{
		Type: transport.MsgFinish, Sender: s.kit.Name, Payload: blob,
	})
	// Framed wire totals (length headers and envelopes included),
	// complementing the per-round payload counters. Connections replaced by
	// a re-attach count too.
	res.History.WireBytesRead, res.History.WireBytesWritten = s.supersededRead, s.supersededWritten
	s.mu.Lock()
	for _, c := range s.clients {
		if c != nil {
			res.History.WireBytesRead += c.conn.BytesRead()
			res.History.WireBytesWritten += c.conn.BytesWritten()
		}
	}
	s.mu.Unlock()
	return res, nil
}

// begin implements backend: the round's task payload is encoded once, on
// the shared pool, which is idle between rounds, into the last round's
// buffer: every task Write of that round has returned.
func (s *Server) begin(round int, global map[string]*tensor.Matrix) error {
	blob, _, err := encodeChecked(s.downCodec, s.blob, global)
	s.round, s.blob = round, blob
	return err
}

// idle implements backend: the live clients not still chewing on an
// earlier round's task, in name order (a seeded sampling shuffle needs a
// stable starting order); sampling is over the live roster.
func (s *Server) idle() ([]int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]int, 0, len(s.clients))
	live := 0
	for _, id := range s.ros.byName() {
		c := s.client(id)
		if c == nil || c.dead {
			continue
		}
		live++
		if c.taskedRound < 0 {
			ids = append(ids, id)
		}
	}
	return ids, live
}

// task implements backend: the round's task goes out to one client. A
// straggler stays tasked — and out of idle — until its reply or its
// connection error drains in.
func (s *Server) task(id int) (int, error) {
	task := &transport.Message{Type: transport.MsgTask, Sender: s.kit.Name, Round: s.round, Payload: s.blob}
	if err := s.write(id, task); err != nil {
		return 0, err
	}
	s.setTasked(id, s.round)
	return len(s.blob), nil
}

// probe implements backend: a MsgPing whose MsgPong answer (or the
// connection's error) resolves the probe in the gather.
func (s *Server) probe(id int) error {
	return s.write(id, &transport.Message{Type: transport.MsgPing, Sender: s.kit.Name, Round: s.round})
}

// write sends msg on a client's current connection, marking the client
// dead when the write fails.
func (s *Server) write(id int, msg *transport.Message) error {
	s.mu.Lock()
	var conn transport.MessageConn
	if c := s.client(id); c != nil && !c.dead {
		conn = c.conn
	}
	s.mu.Unlock()
	if conn == nil {
		return errors.New("not connected")
	}
	if err := conn.Write(msg); err != nil {
		s.markDead(id)
		return err
	}
	return nil
}

// normalize turns one inbox delivery into an engine event, doing the
// connection-level bookkeeping on the way: a vetted join is admitted, a
// delivery from a superseded connection is dropped, and a reply or
// connection error releases the client's tasked slot.
func (s *Server) normalize(in inboxMsg) event {
	if in.join != nil {
		return s.admit(in.join)
	}
	if s.clientGen(in.id) != in.gen {
		return event{} // stale delivery from a superseded connection
	}
	if in.msg != nil && in.msg.Type == transport.MsgPong {
		// Before the tasked-slot bookkeeping: a pong must never release a
		// pending task.
		return event{kind: evProbe, id: in.id}
	}
	// Classify by the server-side task record, never the client-supplied
	// msg.Round: a tasked client sending a malformed round must still
	// release its slot, an untasked one must not be able to claim
	// participation, and staleness is measured from the round the server
	// tasked.
	wasTasked := s.setTasked(in.id, -1)
	if in.err != nil {
		s.markDead(in.id)
		return event{kind: evFailure, id: in.id, round: wasTasked, err: in.err, cause: "conn"}
	}
	u, err := s.handleReply(s.ros.names[in.id], in.msg)
	if err == nil && wasTasked < 0 {
		err = errors.New("unsolicited update (not tasked)")
	}
	if err != nil {
		// An execution failure (MsgError reply) or a garbled payload.
		return event{kind: evFailure, id: in.id, round: wasTasked, err: err, cause: "reject"}
	}
	u.Round = wasTasked
	return event{kind: evUpdate, id: in.id, round: wasTasked, update: u}
}

// handleReply turns one inbound message into a ClientUpdate.
func (s *Server) handleReply(name string, msg *transport.Message) (*ClientUpdate, error) {
	if msg.Type == transport.MsgError {
		// The client's own report of a failed round, recorded in its words.
		return nil, errors.New(msg.Meta["error"])
	}
	if msg.Type != transport.MsgUpdate {
		return nil, fmt.Errorf("expected update, got %s", msg.Type)
	}
	// Enforce the top-k gate on the payload itself, not just at
	// negotiation: the codecs sniff any magic, so a client ignoring
	// the registration ack could otherwise push sparsified weights (most
	// of every parameter zeroed) straight into the average.
	if !s.cfg.AllowTopKUplink && bytes.HasPrefix(msg.Payload, []byte(topKMagic)) {
		return nil, errors.New("top-k update payload rejected (not negotiated; set AllowTopKUplink)")
	}
	if hier.IsPartial(msg.Payload) {
		// A partial-aggregate uplink from an edge node. The same payload
		// gate applies as for top-k: a flat server must reject it rather
		// than let an unexpected codec reach the average.
		if !s.cfg.Tier {
			return nil, errors.New("partial-aggregate payload rejected (server is not tier-enabled; set Tier)")
		}
		p, err := hier.DecodePartial(msg.Payload)
		if err != nil {
			return nil, err
		}
		// Weight and mean loss come from the partial itself — the exact
		// fold accounting — not from what the message header claims.
		return &ClientUpdate{
			ClientName: name, Round: msg.Round,
			NumSamples: clampSamples(p.Weight()), TrainLoss: p.MeanLoss(),
			PayloadBytes: len(msg.Payload),
			hierPartial:  p,
		}, nil
	}
	// The check walk: the payload is validated, not decoded. It stays on
	// the update until finalize folds it, and nothing the payload claims
	// is allocated before its shapes match the round's global model.
	params, err := checkPayload(msg.Payload)
	if err != nil {
		return nil, err
	}
	// A reply may omit its loss; one that sends garbage is rejected here,
	// and a non-finite value by the engine's accept step.
	var loss float64
	if text, ok := msg.Meta["train_loss"]; ok {
		if loss, err = strconv.ParseFloat(text, 64); err != nil {
			return nil, fmt.Errorf("bad train_loss %q", text)
		}
	}
	return &ClientUpdate{
		ClientName: name, Round: msg.Round,
		NumSamples: msg.NumSamples, TrainLoss: loss,
		PayloadBytes: len(msg.Payload),
		payload:      msg.Payload, params: params, msg: msg,
	}, nil
}

// setTasked updates a client's tasked round, returning the previous value.
func (s *Server) setTasked(id, round int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.client(id)
	if c == nil {
		return -1
	}
	prev := c.taskedRound
	c.taskedRound = round
	return prev
}

// markDead flags a client's connection as failed.
func (s *Server) markDead(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.client(id); c != nil && !c.dead {
		c.dead = true
		s.met.connected.Add(-1)
	}
}

// broadcast best-effort sends msg to every live client, returning
// "client: error" strings for the ones it could not reach so the caller
// can record them in the Result.
func (s *Server) broadcast(msg *transport.Message) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var failures []string
	for _, c := range s.clients {
		if c == nil {
			continue
		}
		if c.dead {
			failures = append(failures, fmt.Sprintf("%s: connection already failed", c.name))
			continue
		}
		if err := c.conn.Write(msg); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", c.name, err))
			s.cfg.Logf("fl server: broadcast to %q: %v", c.name, err)
		}
	}
	return failures
}
