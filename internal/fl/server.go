package fl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
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
// downlink weight payloads.
type ServerConfig struct {
	// Addr is the TCP listen address (e.g. ":8443" or "127.0.0.1:0").
	Addr string
	// ExpectedClients is how many registrations to wait for before
	// starting round 0.
	ExpectedClients int
	// RegisterTimeout bounds the registration phase.
	RegisterTimeout time.Duration
	// Rounds is E, the communication-round count.
	Rounds int
	// RoundDeadline bounds one round's gather; on expiry the round
	// aggregates whatever arrived and stragglers are handled by the
	// staleness policy. 0 means no limit.
	RoundDeadline time.Duration
	// SampleFraction tasks a random subset of idle clients each round;
	// 0 or >= 1 tasks them all.
	SampleFraction float64
	// MinUpdates, when > 0, aggregates as soon as this many updates have
	// arrived instead of waiting for every tasked client.
	MinUpdates int
	// MinClients is the per-round quorum: a round that gathers fewer
	// successful updates fails the run. 0 keeps the legacy floor of one
	// update, so deadline rounds aggregate whatever arrived.
	MinClients int
	// Seed drives the client-sampling stream.
	Seed int64
	// Codec names the downlink weight codec for task/finish payloads
	// ("raw", "f32", "int8", "topk[:fraction]"); default raw. Each client's
	// uplink codec is its own choice, negotiated at registration.
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
	// Filters run over every client update before aggregation.
	Filters []Filter
	// Validate, if non-nil, scores each aggregated model for selection.
	Validate func(weights map[string]*tensor.Matrix) (float64, error)
	// VerifyToken authenticates a client's admission token (required).
	// Use (*provision.Project).VerifyToken in-process or
	// provision.TokenVerifier over a tokens file for disk-based kits.
	VerifyToken func(name, token string) bool
	// Logf receives progress lines (default log.Printf).
	Logf func(format string, args ...any)
	// Listener, when non-nil, overrides Addr and the startup kit's TLS
	// stack with a caller-supplied transport — the simulator and the
	// fltest conformance kit pass a transport.MemNetwork here so the same
	// server logic runs over in-memory links with scripted faults.
	Listener transport.MessageListener
	// Clock supplies round timestamps and gather deadlines (default: real
	// wall clock).
	Clock Clock
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
	// mass failure. Nil runs the same round loop under the null policy: one
	// attempt per assignment, no health tracking.
	Reconcile *ReconcilePolicy
	// Tier, when non-nil, accepts partial-aggregate uplinks from fl.Edge
	// nodes and aggregates by streaming: each registered "client" may be
	// an edge fronting a shard of real clients, every accepted uplink is
	// merged (a plain client's folded) into one partial as it arrives, so
	// the root holds O(model) state however many edges or clients there
	// are, and Participants in the round record are the edge names. A
	// mixed fleet (edges plus plain clients) is supported. Nil keeps the
	// legacy flat path bit-for-bit unchanged and rejects partial payloads.
	Tier *TierConfig
}

// serverClient is one registered client's connection state. Reads happen
// on a dedicated reader goroutine feeding the server inbox; writes happen
// only from the Run goroutine, so the Conn's one-reader/one-writer
// contract holds.
type serverClient struct {
	name string
	conn transport.MessageConn
	// token is the session token issued at registration; a reconnecting
	// client presents it to re-attach (transport.MetaSession).
	token string
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

// inboxMsg is one reader goroutine's delivery: a message or a terminal
// connection error, or (from the accept loop) a vetted reconnect to
// re-attach on the Run goroutine.
type inboxMsg struct {
	name string
	gen  int
	msg  *transport.Message
	err  error
	// resume, when non-nil, is a vetted mid-run reconnect; the other
	// fields are unused.
	resume *resumeConn
}

// resumeConn is a reconnecting client that passed admission and session
// checks in the accept loop; the Run goroutine completes the re-attach.
type resumeConn struct {
	name  string
	token string
	codec string
	conn  transport.MessageConn
}

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
	// registerDeadline bounds the wait for a new connection's MsgRegister, so
	// a peer that dials and goes silent costs the accept loop seconds, not
	// the run.
	registerDeadline time.Duration
	inbox            chan inboxMsg
	source[inboxMsg]
	// round / blob are the task the engine's current round hands out: the
	// global model, encoded once per round.
	round int
	blob  []byte

	mu      sync.Mutex
	clients map[string]*serverClient
	// sessions maps client name to issued session token; recovered from
	// the WAL on restart so pre-crash clients can re-attach.
	sessions map[string]string
}

// NewServer builds a server from its startup kit.
func NewServer(cfg ServerConfig, kit *provision.StartupKit) (*Server, error) {
	if cfg.ExpectedClients <= 0 {
		return nil, errors.New("fl: server needs ExpectedClients > 0")
	}
	if cfg.VerifyToken == nil {
		return nil, errors.New("fl: server needs a VerifyToken function")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if err := validateTier(cfg.Tier, cfg.Aggregator, cfg.AsyncAggregator,
		cfg.Filters, cfg.WAL, cfg.Reconcile); err != nil {
		return nil, err
	}
	if cfg.Aggregator == nil {
		cfg.Aggregator = FedAvg{}
	}
	if cfg.RegisterTimeout <= 0 {
		cfg.RegisterTimeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock()
	}
	downCodec, err := CodecByName(cfg.Codec)
	if err != nil {
		return nil, err
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
		tokenRNG:         tensor.NewRNG(cfg.Seed + 2654435761),
		registerDeadline: 5 * time.Second,
		// Buffered so reader goroutines never block on a drained server:
		// a cooperative client has at most one reply outstanding (it is
		// not re-tasked until that reply drains) plus one terminal error,
		// with headroom for reconnect deliveries.
		inbox:    make(chan inboxMsg, 4*cfg.ExpectedClients),
		clients:  make(map[string]*serverClient),
		sessions: sessions,
	}
	s.source = source[inboxMsg]{clk: cfg.Clock, ch: s.inbox, normalize: s.normalize}
	var sk sink = &flatSink{filters: cfg.Filters, agg: cfg.Aggregator, async: cfg.AsyncAggregator}
	if cfg.Tier != nil {
		// The tier root merges edge partials and folds plain updates as they
		// arrive; exactness makes the result identical to flat FedAvg over
		// every leaf.
		sk = &tierSink{}
	}
	s.eng = newEngine(roundConfig{
		rounds: cfg.Rounds, minClients: cfg.MinClients, minUpdates: cfg.MinUpdates,
		sampleFraction: cfg.SampleFraction, deadline: cfg.RoundDeadline, seed: cfg.Seed,
		async: cfg.AsyncAggregator, validate: cfg.Validate,
		clock: cfg.Clock, wal: cfg.WAL, metrics: cfg.Metrics, reconcile: cfg.Reconcile,
		logf: func(format string, args ...any) { cfg.Logf("fl server: "+format, args...) },
	}, s, sk)
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
		_ = c.conn.Close()
	}
	return err
}

// acceptClients runs the registration phase until ExpectedClients have
// presented valid tokens, then starts their readers and the reconnect
// accept loop.
func (s *Server) acceptClients() error {
	// Registration is pure socket I/O, so its timeout is wall time even
	// when a simulated Clock drives the rounds: a virtual clock only
	// advances inside round gathers, and a registration deadline measured
	// against it would never fire.
	deadline := time.Now().Add(s.cfg.RegisterTimeout)
	for {
		s.mu.Lock()
		n := len(s.clients)
		s.mu.Unlock()
		if n >= s.cfg.ExpectedClients {
			s.startReaders()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fl: registration timed out with %d/%d clients", n, s.cfg.ExpectedClients)
		}
		// The per-accept deadline is wall time: it bounds socket waits so
		// the registration loop can re-check its own (clock-driven)
		// timeout, not a simulated quantity.
		_ = s.ln.SetDeadline(time.Now().Add(time.Second))
		conn, err := s.ln.AcceptConn()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return fmt.Errorf("fl: accept: %w", err)
		}
		if err := s.register(conn); err != nil {
			s.cfg.Logf("fl server: rejected registration from %s: %v", conn.RemoteAddr(), err)
			_ = conn.Close()
		}
	}
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

// register handles one client's MsgRegister handshake: admission-token
// verification, uplink codec negotiation, and session issuance. A new
// client is issued a session token (durably recorded before the ack when
// a WAL is configured); a returning client presenting its token — after a
// server restart, or redialing during the registration window — re-attaches
// to its session instead of being rejected as a duplicate.
func (s *Server) register(conn transport.MessageConn) error {
	_ = conn.SetDeadline(time.Now().Add(s.registerDeadline))
	msg, err := conn.Read()
	if err != nil {
		return err
	}
	_ = conn.SetDeadline(time.Time{})
	if msg.Type != transport.MsgRegister {
		return fmt.Errorf("fl: expected register, got %s", msg.Type)
	}
	if !s.cfg.VerifyToken(msg.Sender, msg.Token) {
		_ = conn.Write(&transport.Message{
			Type: transport.MsgRegisterAck, Sender: s.kit.Name,
			Meta: map[string]string{"accepted": "false", "reason": "bad token"},
		})
		return fmt.Errorf("fl: bad token from %q", msg.Sender)
	}
	codecName := s.negotiateCodec(msg)
	sess := msg.Meta[transport.MetaSession]
	resumed := sess != ""
	s.mu.Lock()
	if resumed && sess != s.sessions[msg.Sender] {
		s.mu.Unlock()
		_ = conn.Write(&transport.Message{
			Type: transport.MsgRegisterAck, Sender: s.kit.Name,
			Meta: map[string]string{"accepted": "false", "reason": "unknown session"},
		})
		return fmt.Errorf("fl: unknown session from %q", msg.Sender)
	}
	if !resumed {
		sess = fmt.Sprintf("%016x", s.tokenRNG.Rand().Int63())
		s.sessions[msg.Sender] = sess
	}
	c, exists := s.clients[msg.Sender]
	if exists && !resumed {
		s.mu.Unlock()
		return fmt.Errorf("fl: duplicate client %q", msg.Sender)
	}
	if exists {
		if c.conn != nil {
			_ = c.conn.Close()
		}
		c.conn = conn
		c.gen++
		c.dead = false
	} else {
		s.clients[msg.Sender] = &serverClient{name: msg.Sender, conn: conn, token: sess, taskedRound: -1}
	}
	s.mu.Unlock()
	if !resumed && s.cfg.WAL != nil {
		if err := s.cfg.WAL.AppendSession(msg.Sender, sess); err != nil {
			return err
		}
	}
	if resumed {
		s.met.resumes.Inc()
		s.cfg.Logf("fl server: client %q session resumed (uplink codec %s)", msg.Sender, codecName)
	} else {
		s.cfg.Logf("fl server: client %q registered (token ok, uplink codec %s)", msg.Sender, codecName)
	}
	return conn.Write(&transport.Message{
		Type: transport.MsgRegisterAck, Sender: s.kit.Name,
		Meta: map[string]string{
			"accepted": "true", transport.MetaCodec: codecName, transport.MetaSession: sess,
		},
	})
}

// readLoop forwards conn's inbound messages (and finally its terminal
// read error) into the server inbox, tagged with the connection generation
// the reader was started under, so the Run goroutine can discard
// deliveries from a superseded connection after a session re-attach. conn
// is a parameter, never read from the shared client entry: the entry's
// conn is swapped on resume, and this reader must keep draining the
// connection it was born with.
func (s *Server) readLoop(name string, conn transport.MessageConn, gen int) {
	for {
		msg, err := conn.Read()
		if err != nil {
			s.inbox <- inboxMsg{name: name, gen: gen, err: err}
			return
		}
		s.inbox <- inboxMsg{name: name, gen: gen, msg: msg}
	}
}

// startReaders launches one reader goroutine per registered client, so a
// straggler's late reply is never stranded in a socket buffer and a dead
// connection is reported, not silently absent, and the accept loop through
// which a client that lost its connection re-attaches.
func (s *Server) startReaders() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.clients {
		go s.readLoop(c.name, c.conn, c.gen)
	}
	s.met.connected.Set(float64(len(s.clients)))
	go s.acceptLoop()
}

// acceptLoop keeps accepting connections after the registration window so
// clients that lost their connection mid-run can re-attach. Admission and
// session validation happen here, off the round loop; the actual
// re-attach — swapping the connection, restarting the reader, re-sending
// an in-flight task — is posted to the inbox and performed by the Run
// goroutine, which owns all connection writes. The loop ends when the
// listener closes.
func (s *Server) acceptLoop() {
	_ = s.ln.SetDeadline(time.Time{})
	for {
		conn, err := s.ln.AcceptConn()
		if err != nil {
			return
		}
		go func(conn transport.MessageConn) {
			r, err := s.vetReconnect(conn)
			if err != nil {
				s.cfg.Logf("fl server: rejected reconnect from %s: %v", conn.RemoteAddr(), err)
				_ = conn.Close()
				return
			}
			s.inbox <- inboxMsg{name: r.name, resume: r}
		}(conn)
	}
}

// vetReconnect reads and validates a mid-run registration: the admission
// token must verify and the presented session token must match the one
// issued (or recovered from the WAL). New clients cannot join mid-run.
func (s *Server) vetReconnect(conn transport.MessageConn) (*resumeConn, error) {
	_ = conn.SetDeadline(time.Now().Add(s.registerDeadline))
	msg, err := conn.Read()
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	if msg.Type != transport.MsgRegister {
		return nil, fmt.Errorf("fl: expected register, got %s", msg.Type)
	}
	if !s.cfg.VerifyToken(msg.Sender, msg.Token) {
		_ = conn.Write(&transport.Message{
			Type: transport.MsgRegisterAck, Sender: s.kit.Name,
			Meta: map[string]string{"accepted": "false", "reason": "bad token"},
		})
		return nil, fmt.Errorf("fl: bad token from %q", msg.Sender)
	}
	sess := msg.Meta[transport.MetaSession]
	s.mu.Lock()
	known := s.sessions[msg.Sender]
	s.mu.Unlock()
	if sess == "" || sess != known {
		_ = conn.Write(&transport.Message{
			Type: transport.MsgRegisterAck, Sender: s.kit.Name,
			Meta: map[string]string{"accepted": "false", "reason": "unknown session"},
		})
		return nil, fmt.Errorf("fl: reconnect from %q without a valid session", msg.Sender)
	}
	return &resumeConn{name: msg.Sender, token: sess, codec: s.negotiateCodec(msg), conn: conn}, nil
}

// reattach completes a vetted reconnect on the Run goroutine, which owns
// all connection writes: the client's connection is replaced, its reader
// restarted under a bumped generation (messages from the dead connection
// become stale), and the registration ack written. It returns the round
// the client was tasked for before the swap (-1: idle) — that assignment
// went down with the old connection — and the ack's write error, if any.
func (s *Server) reattach(r *resumeConn) (wasTasked int, err error) {
	s.mu.Lock()
	c, known := s.clients[r.name]
	if !known {
		c = &serverClient{name: r.name, token: r.token, taskedRound: -1}
		s.clients[r.name] = c
	}
	old := c.conn
	wasDead := c.dead
	wasTasked = c.taskedRound
	c.conn = r.conn
	c.gen++
	gen := c.gen
	c.dead = false
	c.taskedRound = -1
	s.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	if wasDead {
		s.met.connected.Add(1)
	}
	ack := &transport.Message{
		Type: transport.MsgRegisterAck, Sender: s.kit.Name,
		Meta: map[string]string{
			"accepted": "true", transport.MetaCodec: r.codec, transport.MetaSession: r.token,
		},
	}
	if err := r.conn.Write(ack); err != nil {
		s.markDead(r.name)
		return wasTasked, err
	}
	go s.readLoop(r.name, r.conn, gen)
	s.met.resumes.Inc()
	s.cfg.Logf("fl server: client %q session resumed mid-run", r.name)
	return wasTasked, nil
}

// clientGen returns a client's current connection generation (-1 when
// unknown).
func (s *Server) clientGen(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.clients[name]; ok {
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
	// Framed wire totals (headers + metadata + gob overhead included),
	// complementing the per-round payload counters.
	s.mu.Lock()
	for _, c := range s.clients {
		res.History.WireBytesRead += c.conn.BytesRead()
		res.History.WireBytesWritten += c.conn.BytesWritten()
	}
	s.mu.Unlock()
	return res, nil
}

// begin implements backend: the round's task payload is encoded once.
func (s *Server) begin(round int, global map[string]*tensor.Matrix) error {
	blob, err := s.downCodec.Encode(global)
	s.round, s.blob = round, blob
	return err
}

// idle implements backend: the live clients not still chewing on an
// earlier round's task, in name order (a seeded sampling shuffle needs a
// stable starting order); sampling is over the live roster.
func (s *Server) idle() ([]string, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.clients))
	live := 0
	for name, c := range s.clients {
		if c.dead {
			continue
		}
		live++
		if c.taskedRound < 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, live
}

// task implements backend: the round's task goes out to one client. A
// straggler stays tasked — and out of idle — until its reply or its
// connection error drains in.
func (s *Server) task(name string) (int, error) {
	task := &transport.Message{
		Type: transport.MsgTask, Sender: s.kit.Name, Round: s.round, Payload: s.blob,
		Meta: map[string]string{"round": strconv.Itoa(s.round)},
	}
	if err := s.write(name, task); err != nil {
		return 0, err
	}
	s.setTasked(name, s.round)
	return len(s.blob), nil
}

// probe implements backend: a MsgPing whose MsgPong answer (or the
// connection's error) resolves the probe in the gather.
func (s *Server) probe(name string) error {
	return s.write(name, &transport.Message{Type: transport.MsgPing, Sender: s.kit.Name, Round: s.round})
}

// write sends msg on a client's current connection, marking the client
// dead when the write fails.
func (s *Server) write(name string, msg *transport.Message) error {
	s.mu.Lock()
	c, ok := s.clients[name]
	var conn transport.MessageConn
	if ok && !c.dead {
		conn = c.conn
	}
	s.mu.Unlock()
	if conn == nil {
		return errors.New("not connected")
	}
	if err := conn.Write(msg); err != nil {
		s.markDead(name)
		return err
	}
	return nil
}

// normalize turns one inbox delivery into an engine event, doing the
// connection-level bookkeeping on the way: a vetted reconnect is
// re-attached, a delivery from a superseded connection is dropped, and a
// reply or connection error releases the client's tasked slot.
func (s *Server) normalize(in inboxMsg) event {
	if in.resume != nil {
		wasTasked, err := s.reattach(in.resume)
		return event{kind: evReattach, name: in.resume.name, round: wasTasked, err: err}
	}
	if s.clientGen(in.name) != in.gen {
		return event{} // stale delivery from a superseded connection
	}
	if in.msg != nil && in.msg.Type == transport.MsgPong {
		// Before the tasked-slot bookkeeping: a pong must never release a
		// pending task.
		return event{kind: evProbe, name: in.name}
	}
	// Classify by the server-side task record, never the client-supplied
	// msg.Round: a tasked client sending a malformed round must still
	// release its slot, an untasked one must not be able to claim
	// participation, and staleness is measured from the round the server
	// tasked.
	wasTasked := s.setTasked(in.name, -1)
	if in.err != nil {
		s.markDead(in.name)
		return event{kind: evFailure, name: in.name, round: wasTasked, err: in.err, cause: "conn"}
	}
	u, err := s.handleReply(in.name, in.msg)
	if err == nil && wasTasked < 0 {
		err = errors.New("unsolicited update (not tasked)")
	}
	if err != nil {
		// An execution failure (MsgError reply) or a garbled payload.
		return event{kind: evFailure, name: in.name, round: wasTasked, err: err, cause: "reject"}
	}
	u.Round = wasTasked
	return event{kind: evUpdate, name: in.name, round: wasTasked, update: u, payload: in.msg.Payload}
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
	// negotiation: DecodeWeights sniffs any magic, so a client ignoring
	// the registration ack could otherwise push sparsified weights (most
	// of every parameter zeroed) straight into the average.
	if !s.cfg.AllowTopKUplink && bytes.HasPrefix(msg.Payload, []byte(topKMagic)) {
		return nil, errors.New("top-k update payload rejected (not negotiated; set AllowTopKUplink)")
	}
	if hier.IsPartial(msg.Payload) {
		// A partial-aggregate uplink from an edge node. The same payload
		// gate applies as for top-k: a flat server must reject it rather
		// than let an unexpected codec reach the average.
		if s.cfg.Tier == nil {
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
	weights, err := DecodeWeights(msg.Payload)
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
		ClientName: name, Round: msg.Round, Weights: weights,
		NumSamples: msg.NumSamples, TrainLoss: loss,
		PayloadBytes: len(msg.Payload),
	}, nil
}

// setTasked updates a client's tasked round, returning the previous value.
func (s *Server) setTasked(name string, round int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.clients[name]
	if !ok {
		return -1
	}
	prev := c.taskedRound
	c.taskedRound = round
	return prev
}

// markDead flags a client's connection as failed.
func (s *Server) markDead(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.clients[name]; ok && !c.dead {
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
	for name, c := range s.clients {
		if c.dead {
			failures = append(failures, fmt.Sprintf("%s: connection already failed", name))
			continue
		}
		if err := c.conn.Write(msg); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", name, err))
			s.cfg.Logf("fl server: broadcast to %q: %v", name, err)
		}
	}
	return failures
}
