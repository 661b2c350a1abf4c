package fl

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"clinfl/internal/fl/durable"
	"clinfl/internal/fl/hier"
	"clinfl/internal/fl/reconcile"
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
	// staleness policy. 0 falls back to RoundTimeout.
	RoundDeadline time.Duration
	// RoundTimeout is the legacy name for RoundDeadline (0 = no limit).
	RoundTimeout time.Duration
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
	// ("raw", "f32", "topk[:fraction]"); default raw. Each client's
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
	// mass failure. Nil keeps the legacy single-shot round behavior.
	Reconcile *ReconcilePolicy
	// Tier, when non-nil, accepts partial-aggregate uplinks from hier.Edge
	// nodes and aggregates through a TierAggregator: each registered
	// "client" may be an edge fronting a shard of real clients, so the
	// root holds O(edges * model) state instead of O(clients * model), and
	// Participants in the round record are the edge names. A mixed fleet
	// (edges plus plain clients) is supported. Nil keeps the legacy flat
	// path bit-for-bit unchanged and rejects partial payloads.
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
// in-process Controller over the wire.
type Server struct {
	cfg       ServerConfig
	kit       *provision.StartupKit
	ln        transport.MessageListener
	downCodec WeightCodec
	rng       *tensor.RNG
	tokenRNG  *tensor.RNG
	inbox     chan inboxMsg
	met       flMetrics
	// mon / pol are the reconciliation state machine and its policy, nil /
	// zero without cfg.Reconcile. The monitor is only touched from the Run
	// goroutine, like the rest of the round state.
	mon *reconcile.Monitor
	pol ReconcilePolicy

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
	if cfg.RoundDeadline <= 0 {
		cfg.RoundDeadline = cfg.RoundTimeout
	}
	if err := validateTier(cfg.Tier, cfg.Aggregator, cfg.AsyncAggregator,
		cfg.Filters, cfg.WAL, cfg.Reconcile); err != nil {
		return nil, err
	}
	if cfg.Tier != nil {
		// The tier root merges edge partials and folds plain updates in one
		// streaming pass; exactness makes the result identical to flat
		// FedAvg over every leaf.
		cfg.Aggregator = &TierAggregator{}
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
	var mon *reconcile.Monitor
	var pol ReconcilePolicy
	if cfg.Reconcile != nil {
		pol = cfg.Reconcile.withDefaults()
		mon = pol.monitor()
	}
	return &Server{
		cfg:       cfg,
		kit:       kit,
		ln:        ln,
		downCodec: downCodec,
		rng:       tensor.NewRNG(cfg.Seed + 7919),
		// The token stream is independent of the sampling stream so adding
		// session tokens never perturbs which clients a seeded run samples.
		tokenRNG: tensor.NewRNG(cfg.Seed + 2654435761),
		met:      newFLMetrics(cfg.Metrics),
		mon:      mon,
		pol:      pol,
		// Buffered so reader goroutines never block on a drained server:
		// a cooperative client has at most one reply outstanding (it is
		// not re-tasked until that reply drains) plus one terminal error,
		// with headroom for reconnect deliveries.
		inbox:    make(chan inboxMsg, 4*cfg.ExpectedClients),
		clients:  make(map[string]*serverClient),
		sessions: sessions,
	}, nil
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
// presented valid tokens.
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
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
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
// connection is reported, not silently absent.
func (s *Server) startReaders() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.clients {
		go s.readLoop(c.name, c.conn, c.gen)
	}
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
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
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

// handleResume completes a vetted reconnect on the Run goroutine: the
// client's connection is swapped, its reader restarted under a bumped
// generation (messages from the dead connection become stale), and — when
// the client was tasked this round and its update has not arrived — the
// current task is re-sent so the round can still complete. The return
// value is the delta to the gather's pending count: +1 when a client whose
// pending slot was already released (its failure drained) is re-tasked,
// -1 when a still-pending client's re-attach fails.
func (s *Server) handleResume(r *resumeConn, round int, blob []byte, rec *RoundRecord, tasked, replied map[string]bool) int {
	slotHeld, ok := s.reattach(r, round, rec)
	release := 0
	if slotHeld {
		release = -1 // the slot stays held only if the re-attach fully succeeds
	}
	if !ok {
		return release
	}
	if !tasked[r.name] || replied[r.name] || blob == nil {
		return release // idle (or already heard from): nothing to re-send
	}
	task := &transport.Message{
		Type: transport.MsgTask, Sender: s.kit.Name, Round: round, Payload: blob,
		Meta: map[string]string{"round": strconv.Itoa(round)},
	}
	if err := r.conn.Write(task); err != nil {
		rec.Failures = append(rec.Failures, fmt.Sprintf("%s: resend task: %v", r.name, err))
		s.met.failure("send")
		s.markDead(r.name)
		return release
	}
	s.setTasked(r.name, round)
	rec.BytesDown += int64(len(blob))
	if slotHeld {
		return 0
	}
	return 1
}

// reattach performs the connection-swap half of a vetted reconnect: the
// client's connection is replaced, its reader restarted under a bumped
// generation (messages from the dead connection become stale), and the
// registration ack written. It reports whether the client's task slot for
// round was held before the swap and whether the re-attach succeeded.
func (s *Server) reattach(r *resumeConn, round int, rec *RoundRecord) (slotHeld, ok bool) {
	s.mu.Lock()
	c, known := s.clients[r.name]
	if !known {
		c = &serverClient{name: r.name, token: r.token, taskedRound: -1}
		s.clients[r.name] = c
	}
	old := c.conn
	wasDead := c.dead
	slotHeld = c.taskedRound == round
	c.conn = r.conn
	c.gen++
	gen := c.gen
	c.dead = false
	c.taskedRound = -1
	s.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	ack := &transport.Message{
		Type: transport.MsgRegisterAck, Sender: s.kit.Name,
		Meta: map[string]string{
			"accepted": "true", transport.MetaCodec: r.codec, transport.MetaSession: r.token,
		},
	}
	if err := r.conn.Write(ack); err != nil {
		rec.Failures = append(rec.Failures, fmt.Sprintf("%s: resume ack: %v", r.name, err))
		s.met.failure("conn")
		s.markDead(r.name)
		return slotHeld, false
	}
	go s.readLoop(r.name, r.conn, gen)
	s.met.resumes.Inc()
	if wasDead {
		s.met.connected.Add(1)
	}
	s.cfg.Logf("fl server: client %q session resumed mid-run", r.name)
	return slotHeld, true
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
	s.startReaders()
	go s.acceptLoop()
	s.mu.Lock()
	s.met.connected.Set(float64(len(s.clients)))
	s.mu.Unlock()
	global := cloneWeights(initialWeights)
	res := &Result{History: History{BestRound: -1}}

	// A durable run picks up where the WAL left off: the last committed
	// model replaces initialWeights, and a round open at the crash is
	// resumed with its recorded updates re-seeded.
	startRound := 0
	var resume *durable.OpenRound
	if s.cfg.WAL != nil {
		st := s.cfg.WAL.Recovered()
		if st.Records > 0 {
			s.met.reg.Counter("fl_recoveries_total", "runs resumed from a non-empty WAL").Inc()
		}
		if st.Weights != nil {
			global = cloneWeights(st.Weights)
		}
		startRound = st.LastRound + 1
		if st.Open != nil {
			startRound = st.Open.Round
			resume = st.Open
			s.cfg.Logf("fl server: resuming open round %d from WAL (%d tasked, %d updates recovered)",
				resume.Round, len(resume.Tasked), len(resume.Updates))
		} else if st.Records > 0 {
			s.cfg.Logf("fl server: resuming from WAL at round %d (last committed %d)", startRound, st.LastRound)
		}
		// Replayed quarantine decisions take effect before any sampling: a
		// crash must not resurrect a quarantined client into the pool.
		if s.mon != nil {
			for name, state := range st.Health {
				if state == reconcile.Quarantined.String() {
					s.mon.SetQuarantined(name)
				}
			}
			s.met.syncHealthGauges(s.mon)
		}
	}

	for round := startRound; round < s.cfg.Rounds; round++ {
		start := s.cfg.Clock.Now()
		rec := RoundRecord{Round: round}
		updates, late, err := s.runRound(round, global, &rec, resume)
		resume = nil
		if err != nil {
			return nil, err
		}
		global, err = finalizeRound(s.cfg.Filters, s.cfg.Aggregator, s.cfg.AsyncAggregator,
			updates, late, round, global, &rec)
		if err != nil {
			return nil, err
		}
		if ta, ok := s.cfg.Aggregator.(*TierAggregator); ok {
			rec.TierPartials = ta.Partials
			rec.TierBytesUp = ta.TierBytes
			rec.TierResidentBytes = ta.ResidentBytes
		}
		rec.Duration = s.cfg.Clock.Since(start)
		var lossSum, weightSum float64
		for _, u := range updates {
			rec.Participants = append(rec.Participants, u.ClientName)
			lossSum += u.TrainLoss * float64(u.NumSamples)
			weightSum += float64(u.NumSamples)
		}
		if weightSum > 0 {
			rec.MeanTrainLoss = lossSum / weightSum
		}
		if s.cfg.WAL != nil {
			// The commit point: once RecModelCommit is durable (group
			// committed by the syncer, settled by Close) a restart starts
			// at round+1 and never re-runs this round. An unsynced commit
			// lost to a crash just re-runs the round from its durable
			// updates to the byte-identical model.
			if err := s.cfg.WAL.AppendRoundFinal(round, rec.Participants); err != nil {
				return nil, fmt.Errorf("fl: round %d: %w", round, err)
			}
			if err := s.cfg.WAL.AppendModelCommit(round, global); err != nil {
				return nil, fmt.Errorf("fl: round %d: %w", round, err)
			}
		}
		s.met.roundDone(&rec)
		if s.cfg.Validate != nil {
			score, err := s.cfg.Validate(global)
			if err != nil {
				return nil, fmt.Errorf("fl: round %d validate: %w", round, err)
			}
			rec.ValScore = score
			if res.History.BestRound < 0 || score > res.History.BestScore {
				res.History.BestRound = round
				res.History.BestScore = score
				res.BestWeights = cloneWeights(global)
			}
		}
		res.History.Rounds = append(res.History.Rounds, rec)
		s.cfg.Logf("fl server: round %d/%d done in %v (mean loss %.4f, %d/%d participants, %d up / %d down bytes)",
			round+1, s.cfg.Rounds, rec.Duration.Round(time.Millisecond), rec.MeanTrainLoss,
			len(rec.Participants), len(rec.Sampled), rec.BytesUp, rec.BytesDown)
	}

	// Distribute the final model and release the clients.
	blob, err := s.downCodec.Encode(global)
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
	res.FinalWeights = global
	if res.BestWeights == nil {
		res.BestWeights = cloneWeights(global)
	}
	if s.mon != nil {
		res.Health = s.mon.Snapshot()
	}
	return res, nil
}

// sampleLive picks this round's task recipients among clients that are
// alive, not still chewing on an earlier round's task and — under a
// ReconcilePolicy — health-eligible: Unreachable/Quarantined clients stay
// out of the pool until a recovery probe succeeds.
func (s *Server) sampleLive() []*serverClient {
	s.mu.Lock()
	defer s.mu.Unlock()
	idle := make([]*serverClient, 0, len(s.clients))
	total := 0
	for _, c := range s.clients {
		if c.dead {
			continue
		}
		total++
		if s.mon != nil && !s.mon.Eligible(c.name) {
			continue
		}
		if c.taskedRound < 0 {
			idle = append(idle, c)
		}
	}
	// Deterministic shuffle order needs a stable starting order.
	for i := 1; i < len(idle); i++ {
		for j := i; j > 0 && idle[j].name < idle[j-1].name; j-- {
			idle[j], idle[j-1] = idle[j-1], idle[j]
		}
	}
	if s.cfg.SampleFraction <= 0 || s.cfg.SampleFraction >= 1 {
		return idle
	}
	k := int(math.Ceil(float64(total) * s.cfg.SampleFraction))
	if k < 1 {
		k = 1
	}
	if k > len(idle) {
		k = len(idle)
	}
	s.rng.Shuffle(len(idle), func(i, j int) { idle[i], idle[j] = idle[j], idle[i] })
	return idle[:k]
}

// runRound scatters the global model to this round's sampled clients and
// gathers their updates until everyone tasked replies, MinUpdates arrive,
// or the round deadline fires. Per-client send/receive errors land in
// rec.Failures — a failed client is recorded, never silently absent.
// When resume is non-nil (WAL recovery after a restart), the round's
// recorded updates are re-seeded and only the tasked-but-unheard clients
// are re-tasked.
func (s *Server) runRound(round int, global map[string]*tensor.Matrix, rec *RoundRecord, resume *durable.OpenRound) ([]*ClientUpdate, []*ClientUpdate, error) {
	blob, err := s.downCodec.Encode(global)
	if err != nil {
		return nil, nil, err
	}
	// Drain stragglers' replies that landed between rounds so they become
	// idle (sample-able) again and enter this round's staleness handling.
	var late []*ClientUpdate
drain:
	for {
		select {
		case in := <-s.inbox:
			if s.mon != nil {
				if err := s.absorbStale(in, round, rec, &late); err != nil {
					return nil, nil, err
				}
				continue
			}
			if in.resume != nil {
				// No task is in flight yet this round: the re-attach just
				// revives the connection.
				s.handleResume(in.resume, round, nil, rec, nil, nil)
				continue
			}
			if s.clientGen(in.name) != in.gen {
				continue // stale delivery from a superseded connection
			}
			wasTasked := s.setTasked(in.name, -1)
			switch {
			case in.err != nil:
				rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", in.name, in.err))
				s.met.failure("conn")
				s.markDead(in.name)
			default:
				u, uerr := s.handleReply(in.name, in.msg)
				switch {
				case uerr != nil:
					rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", in.name, uerr))
					s.met.failure("reject")
				case wasTasked < 0:
					rec.Failures = append(rec.Failures, fmt.Sprintf("%s: unsolicited update (not tasked)", in.name))
					s.met.failure("reject")
				case s.cfg.AsyncAggregator != nil:
					// Staleness comes from the server-side task record,
					// never the client-supplied msg.Round. Payload bytes
					// are counted at merge time in finalizeRound.
					u.Round = wasTasked
					late = append(late, u)
				default:
					rec.LateDropped = append(rec.LateDropped, in.name)
				}
			}
		default:
			break drain
		}
	}

	// tasked / replied track this round's scatter so a mid-gather
	// re-attach knows whether to re-send the task; preSeeded carries a
	// resumed round's WAL-recovered updates straight into the aggregate.
	tasked := make(map[string]bool)
	replied := make(map[string]bool)
	var preSeeded []*ClientUpdate
	var sampled []*serverClient
	if resume != nil {
		for _, u := range resume.Updates {
			cu, err := recoveredUpdate(u, round)
			if err != nil {
				// Lost, not fatal: the client is re-tasked below like any
				// other tasked-but-unheard one.
				rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", u.Client, err))
				s.met.failure("reject")
				continue
			}
			preSeeded = append(preSeeded, cu)
			replied[u.Client] = true
			rec.BytesUp += int64(u.PayloadBytes)
		}
		s.mu.Lock()
		for _, name := range resume.Tasked {
			rec.Sampled = append(rec.Sampled, name)
			tasked[name] = true
			if replied[name] {
				continue
			}
			c, ok := s.clients[name]
			if !ok || c.dead {
				rec.Failures = append(rec.Failures, fmt.Sprintf("%s: tasked before crash, not reconnected", name))
				s.met.failure("conn")
				continue
			}
			if s.mon != nil && !s.mon.Eligible(name) {
				// Quarantined by a replayed health record: the pre-crash
				// task assignment does not override the quarantine.
				rec.Failures = append(rec.Failures, fmt.Sprintf("%s: quarantined, not re-tasked on resume", name))
				s.met.failure("exec")
				continue
			}
			sampled = append(sampled, c)
		}
		s.mu.Unlock()
	} else {
		sampled = s.sampleLive()
		if s.mon != nil && len(sampled) == 0 {
			// Mass failure: every client is demoted (or dead). Park the
			// round until recovery probes readmit someone instead of
			// failing.
			if err := s.parkUntilEligible(round, rec, &late); err != nil {
				return nil, nil, err
			}
			sampled = s.sampleLive()
		}
		if len(sampled) == 0 {
			return nil, nil, fmt.Errorf("fl: round %d: no live idle clients to task", round)
		}
		if s.cfg.WAL != nil {
			if err := s.cfg.WAL.AppendRoundOpen(round); err != nil {
				return nil, nil, fmt.Errorf("fl: round %d: %w", round, err)
			}
			for _, c := range sampled {
				if err := s.cfg.WAL.AppendTaskAssigned(round, c.name); err != nil {
					return nil, nil, fmt.Errorf("fl: round %d: %w", round, err)
				}
			}
		}
	}
	// No fsync barrier before dispatch: the WAL's durable prefix is the
	// invariant. File order means an fsync that covers this round's open
	// also covers the previous round's commit, so replay can never pair a
	// new round with stale weights; a crash that loses the whole suffix
	// just re-opens the round and re-tasks it, and recomputation is
	// byte-identical. The background syncer flushes the scatter while the
	// clients train, keeping the round's fsyncs off the hot path.
	pending := 0
	var failedSends []string
	for _, c := range sampled {
		if resume == nil {
			rec.Sampled = append(rec.Sampled, c.name)
			tasked[c.name] = true
		}
		task := &transport.Message{
			Type: transport.MsgTask, Sender: s.kit.Name, Round: round, Payload: blob,
			Meta: map[string]string{"round": strconv.Itoa(round)},
		}
		if err := c.conn.Write(task); err != nil {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: send task: %v", c.name, err))
			s.met.failure("send")
			s.markDead(c.name)
			if s.mon != nil {
				if err := s.healthEdge(round, s.mon.Observe(c.name, false, s.cfg.Clock.Now())); err != nil {
					return nil, nil, err
				}
				failedSends = append(failedSends, c.name)
			}
			continue
		}
		s.setTasked(c.name, round)
		rec.BytesDown += int64(len(blob))
		pending++
	}
	// The quorum is clamped to the sampled count, not to the clients whose
	// task send succeeded: send failures must count against an explicitly
	// configured floor, never silently lower it.
	sampleCount := len(sampled)
	if resume != nil {
		sampleCount = len(resume.Tasked)
	}
	quorum := s.cfg.MinClients
	if quorum > sampleCount {
		quorum = sampleCount
	}
	if quorum < 1 {
		quorum = 1
	}
	minUpdates := s.cfg.MinUpdates
	if avail := pending + len(preSeeded); minUpdates <= 0 || minUpdates > avail {
		minUpdates = avail
	}
	if minUpdates < quorum {
		// An early aggregate below the quorum would always fail it; wait
		// for the quorum before cutting the round short.
		minUpdates = quorum
	}

	updates := preSeeded
	if s.mon != nil {
		return s.reconcileGather(round, blob, rec, updates, late, failedSends, pending, quorum, minUpdates)
	}
	deadlineAt, deadlineCh := gatherDeadline(s.cfg.Clock, s.cfg.RoundDeadline)
gather:
	for pending > 0 && len(updates) < minUpdates {
		in, status := waitRecv(s.cfg.Clock, s.inbox, nil, deadlineAt, deadlineCh)
		if status == waitDeadline {
			// Stragglers stay tasked; their replies drain as late
			// messages in a future round's gather.
			s.met.stragglers.Add(int64(pending))
			break gather
		}
		if in.resume != nil {
			pending += s.handleResume(in.resume, round, blob, rec, tasked, replied)
			continue
		}
		if s.clientGen(in.name) != in.gen {
			continue // stale delivery from a superseded connection
		}
		wasTasked := s.setTasked(in.name, -1)
		if in.err != nil {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", in.name, in.err))
			s.met.failure("conn")
			s.markDead(in.name)
			if wasTasked == round {
				pending--
			}
			continue
		}
		u, uerr := s.handleReply(in.name, in.msg)
		// Classify by the server-side task record, never the
		// client-supplied msg.Round: a tasked client sending a
		// malformed round must still release its pending slot, and an
		// untasked one must not be able to claim participation.
		switch {
		case uerr != nil:
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", in.name, uerr))
			s.met.failure("reject")
			if wasTasked == round {
				pending--
			}
		case wasTasked == round:
			pending--
			u.Round = round
			replied[in.name] = true
			if err := s.logUpdate(round, u, in.msg.Payload); err != nil {
				return nil, nil, err
			}
			rec.BytesUp += int64(u.PayloadBytes)
			updates = append(updates, u)
		case wasTasked < 0:
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: unsolicited update (not tasked)", in.name))
			s.met.failure("reject")
		case s.cfg.AsyncAggregator != nil:
			u.Round = wasTasked
			late = append(late, u)
		default:
			rec.LateDropped = append(rec.LateDropped, in.name)
		}
	}
	if len(updates) < quorum {
		return nil, nil, fmt.Errorf("fl: round %d quorum not met: %d/%d updates (failures: %v)",
			round, len(updates), quorum, rec.Failures)
	}
	if len(rec.Failures) > 0 || len(updates) < len(rec.Sampled) {
		s.cfg.Logf("fl server: round %d proceeded with %d/%d clients (failures: %v)",
			round, len(updates), len(rec.Sampled), rec.Failures)
	}
	return updates, late, nil
}

// logUpdate appends an accepted update to the WAL (when there is one) as
// the uplink payload it arrived in, verbatim: a resumed round decodes the
// same bytes the live round did, so nothing is re-encoded here and the
// record is wire-sized. The append is lazy, group-committed by the WAL's
// syncer; a crash that loses it re-tasks the client on resume, and the
// recomputation is byte-identical.
func (s *Server) logUpdate(round int, u *ClientUpdate, payload []byte) error {
	if s.cfg.WAL == nil {
		return nil
	}
	if err := s.cfg.WAL.AppendUpdatePayload(round, u.ClientName, u.NumSamples, u.TrainLoss, payload); err != nil {
		return fmt.Errorf("fl: round %d: %w", round, err)
	}
	return nil
}

// healthEdge records a health transition in metrics and — for the durable
// pool-membership edges, quarantine entry and the rejoin clearing it — in
// the WAL.
func (s *Server) healthEdge(round int, tr reconcile.Transition) error {
	if !tr.Changed() {
		return nil
	}
	s.met.healthTransition(s.mon, tr)
	if s.cfg.WAL != nil && (tr.To == reconcile.Quarantined || tr.From == reconcile.Quarantined) {
		if err := s.cfg.WAL.AppendHealth(round, tr.Client, tr.To.String()); err != nil {
			return fmt.Errorf("fl: round %d: %w", round, err)
		}
	}
	return nil
}

// sendPing fires a recovery probe at a demoted client: a MsgPing whose
// MsgPong answer resolves the probe in the gather (or park) loop. A dead
// or unwritable connection fails the probe immediately, backing off the
// next one — the client rejoins by reconnecting and answering a later
// ping.
func (s *Server) sendPing(round int, name string) error {
	s.mu.Lock()
	c, ok := s.clients[name]
	var conn transport.MessageConn
	dead := true
	if ok {
		conn, dead = c.conn, c.dead
	}
	s.mu.Unlock()
	if ok && !dead && conn != nil {
		ping := &transport.Message{Type: transport.MsgPing, Sender: s.kit.Name, Round: round}
		if err := conn.Write(ping); err == nil {
			return nil // in flight; the pong (or the conn error) resolves it
		}
		s.markDead(name)
	}
	s.met.probe("fail")
	return s.healthEdge(round, s.mon.ProbeResult(name, false, s.cfg.Clock.Now()))
}

// idleEligible returns, in name order, the live idle clients the health
// monitor still admits, minus any in skip. Reconcile mode only.
func (s *Server) idleEligible(skip map[string]bool) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for name, c := range s.clients {
		if c.dead || c.taskedRound >= 0 || skip[name] || !s.mon.Eligible(name) {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// absorbStale handles an inbox delivery that is not part of the current
// round's gather: reconnects, probe answers, and previous rounds'
// stragglers (conn errors, late updates). Shared by the between-rounds
// drain and the parked-round wait; reconcile mode only.
func (s *Server) absorbStale(in inboxMsg, round int, rec *RoundRecord, late *[]*ClientUpdate) error {
	if in.resume != nil {
		// No task is in flight this round: the re-attach just revives the
		// connection; a demoted client rejoins via the next probe.
		s.handleResume(in.resume, round, nil, rec, nil, nil)
		return nil
	}
	if s.clientGen(in.name) != in.gen {
		return nil // stale delivery from a superseded connection
	}
	now := s.cfg.Clock.Now()
	if in.msg != nil && in.msg.Type == transport.MsgPong {
		if s.mon.IsProbing(in.name) {
			s.met.probe("ok")
			return s.healthEdge(round, s.mon.ProbeResult(in.name, true, now))
		}
		return nil
	}
	wasTasked := s.setTasked(in.name, -1)
	if in.err != nil {
		rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", in.name, in.err))
		s.met.failure("conn")
		s.markDead(in.name)
		if s.mon.IsProbing(in.name) {
			// The connection died between the ping and its pong.
			s.met.probe("fail")
			return s.healthEdge(round, s.mon.ProbeResult(in.name, false, now))
		}
		return s.healthEdge(round, s.mon.Observe(in.name, false, now))
	}
	u, uerr := s.handleReply(in.name, in.msg)
	switch {
	case uerr != nil:
		rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", in.name, uerr))
		s.met.failure("reject")
	case wasTasked < 0:
		rec.Failures = append(rec.Failures, fmt.Sprintf("%s: unsolicited update (not tasked)", in.name))
		s.met.failure("reject")
	case s.cfg.AsyncAggregator != nil:
		u.Round = wasTasked
		*late = append(*late, u)
		return s.healthEdge(round, s.mon.Observe(in.name, true, now))
	default:
		rec.LateDropped = append(rec.LateDropped, in.name)
		return s.healthEdge(round, s.mon.Observe(in.name, true, now))
	}
	return nil
}

// parkUntilEligible blocks a round whose sample pool is empty (every
// client demoted or dead — mass failure) until a recovery probe readmits
// someone, bounded by MaxPark. Inbox traffic arriving meanwhile — above
// all the reconnects that make recovery possible — is absorbed like the
// between-rounds drain.
func (s *Server) parkUntilEligible(round int, rec *RoundRecord, late *[]*ClientUpdate) error {
	s.met.parked.Inc()
	parkDeadline := s.cfg.Clock.Now().Add(s.pol.MaxPark)
	for {
		now := s.cfg.Clock.Now()
		if len(s.idleEligible(nil)) > 0 {
			return nil
		}
		if !now.Before(parkDeadline) {
			return fmt.Errorf("fl: round %d: no eligible clients after parking %v (every client demoted or dead; failures so far: %v)",
				round, s.pol.MaxPark, rec.Failures)
		}
		for _, name := range s.mon.DueProbes(now) {
			if err := s.sendPing(round, name); err != nil {
				return err
			}
		}
		wake := parkDeadline
		if at := s.mon.NextProbeAt(); !at.IsZero() && at.Before(wake) {
			wake = at
		}
		at, ch := wakeChan(s.cfg.Clock, wake)
		in, status := waitRecv(s.cfg.Clock, s.inbox, nil, at, ch)
		if status == waitDeadline {
			continue
		}
		if err := s.absorbStale(in, round, rec, late); err != nil {
			return err
		}
	}
}

// reconcileGather is the reconciliation-aware replacement for the legacy
// gather loop: failed assignments — send errors, execution errors
// (MsgError replies), dropped connections — are requeued with backoff and
// re-dispatched (to the same client, or — with Substitute — an idle
// eligible one) until the round deadline; demoted clients are pinged and
// may be re-tasked on recovery; and a round that can no longer reach its
// aggregate trigger degrades (FedAsync partial finalize) or parks
// awaiting probes, bounded by MaxPark, instead of deadlocking.
func (s *Server) reconcileGather(round int, blob []byte, rec *RoundRecord,
	updates, late []*ClientUpdate, failedSends []string, pending, quorum, minUpdates int) ([]*ClientUpdate, []*ClientUpdate, error) {
	now := s.cfg.Clock.Now()
	var roundDeadlineAt time.Time
	if s.cfg.RoundDeadline > 0 {
		roundDeadlineAt = now.Add(s.cfg.RoundDeadline)
	}
	rq := reconcile.NewQueue()
	deadlineFired := false
	// assignment maps each in-flight client to its current task so an
	// outcome knows the slot's attempt count and original owner. The
	// scatter already ran: every client it tasked holds this round's slot.
	assignment := make(map[string]reconcile.Task, pending)
	s.mu.Lock()
	for name, c := range s.clients {
		if c.taskedRound == round && !c.dead {
			assignment[name] = reconcile.Task{Client: name, Round: round, Attempt: 1, Origin: name}
		}
	}
	s.mu.Unlock()
	participated := make(map[string]bool, len(updates))
	for _, u := range updates {
		participated[u.ClientName] = true
	}
	inSampled := make(map[string]bool, len(rec.Sampled))
	for _, n := range rec.Sampled {
		inSampled[n] = true
	}
	// requeue schedules retry attempt t.Attempt+1 of a failed slot, unless
	// the slot is out of attempts or the retry could not run before the
	// round deadline. The triggering failure is already recorded, so a
	// task that dies here is abandoned, never silently lost.
	requeue := func(t reconcile.Task, now time.Time) {
		if deadlineFired || t.Attempt >= s.pol.MaxAssignAttempts {
			return
		}
		readyAt := now.Add(s.pol.RequeueBackoff.Delay(t.Attempt - 1))
		if !roundDeadlineAt.IsZero() && !readyAt.Before(roundDeadlineAt) {
			return
		}
		rq.Add(reconcile.Task{Client: t.Client, Round: round, Attempt: t.Attempt + 1, Origin: t.Origin}, readyAt)
		s.met.requeues.Inc()
	}
	for _, name := range failedSends {
		requeue(reconcile.Task{Client: name, Round: round, Attempt: 1, Origin: name}, now)
	}

	// redispatch hands a ready task to its client — or, when that client is
	// dead, busy, demoted, or already counted, to the first idle eligible
	// substitute in name order (deterministic). A task with no viable
	// target is abandoned; its triggering failure is already recorded.
	redispatch := func(t reconcile.Task, now time.Time) error {
		target := ""
		for _, name := range s.idleEligible(participated) {
			if name == t.Client {
				target = name
				break
			}
			if target == "" && s.pol.Substitute {
				target = name
			}
		}
		if target == "" {
			return nil
		}
		s.mu.Lock()
		conn := s.clients[target].conn
		s.mu.Unlock()
		task := &transport.Message{
			Type: transport.MsgTask, Sender: s.kit.Name, Round: round, Payload: blob,
			Meta: map[string]string{"round": strconv.Itoa(round)},
		}
		if err := conn.Write(task); err != nil {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: send task: %v", target, err))
			s.met.failure("send")
			s.markDead(target)
			if err := s.healthEdge(round, s.mon.Observe(target, false, now)); err != nil {
				return err
			}
			requeue(t, now)
			return nil
		}
		s.setTasked(target, round)
		assignment[target] = reconcile.Task{Client: target, Round: round, Attempt: t.Attempt, Origin: t.Origin}
		rec.Reassigned = append(rec.Reassigned, t.Origin+">"+target)
		if !inSampled[target] {
			inSampled[target] = true
			rec.Sampled = append(rec.Sampled, target)
		}
		if s.cfg.WAL != nil {
			if err := s.cfg.WAL.AppendTaskAssigned(round, target); err != nil {
				return fmt.Errorf("fl: round %d: %w", round, err)
			}
		}
		rec.BytesDown += int64(len(blob))
		pending++
		return nil
	}

	parked := false
	var parkDeadline time.Time
	for {
		now = s.cfg.Clock.Now()
		if !deadlineFired && !roundDeadlineAt.IsZero() && !now.Before(roundDeadlineAt) {
			deadlineFired = true
			s.met.stragglers.Add(int64(pending))
			// Queued retries die with the deadline; the failures that
			// queued them are already in rec.Failures, so nothing is
			// silently lost.
			rq.Drain()
		}
		if len(updates) >= minUpdates {
			break
		}
		if deadlineFired && len(updates) >= quorum {
			break
		}
		if parked && !now.Before(parkDeadline) {
			// Parking budget exhausted: degrade if the async path can
			// finalize a partial round, else fall through to the quorum
			// check below.
			break
		}
		if !deadlineFired {
			for _, t := range rq.Due(now) {
				if err := redispatch(t, now); err != nil {
					return nil, nil, err
				}
			}
		}
		for _, name := range s.mon.DueProbes(now) {
			if err := s.sendPing(round, name); err != nil {
				return nil, nil, err
			}
		}
		if pending == 0 && rq.Len() == 0 {
			// Starved: nothing in flight, nothing queued, below the
			// trigger. Recoverable only if probes are running or
			// scheduled; otherwise give up now.
			if !s.mon.Probing() && s.mon.NextProbeAt().IsZero() {
				break
			}
			if !parked {
				parked = true
				parkDeadline = now.Add(s.pol.MaxPark)
				s.met.parked.Inc()
			}
		}
		var wake time.Time
		earliest := func(t time.Time) {
			if !t.IsZero() && (wake.IsZero() || t.Before(wake)) {
				wake = t
			}
		}
		if !deadlineFired {
			earliest(roundDeadlineAt)
			earliest(rq.NextAt())
		}
		earliest(s.mon.NextProbeAt())
		if parked {
			earliest(parkDeadline)
		}
		at, ch := wakeChan(s.cfg.Clock, wake)
		in, status := waitRecv(s.cfg.Clock, s.inbox, nil, at, ch)
		if status == waitDeadline {
			continue
		}
		now = s.cfg.Clock.Now()
		if in.resume != nil {
			slotHeld, _ := s.reattach(in.resume, round, rec)
			name := in.resume.name
			if slotHeld {
				// The re-attach implies the old connection is gone, and
				// with it the in-flight assignment; requeue it rather than
				// racing a blind re-send against the retry machinery.
				t, assigned := assignment[name]
				delete(assignment, name)
				pending--
				rec.Failures = append(rec.Failures, fmt.Sprintf("%s: connection replaced mid-task", name))
				s.met.failure("conn")
				if err := s.healthEdge(round, s.mon.Observe(name, false, now)); err != nil {
					return nil, nil, err
				}
				if assigned {
					requeue(t, now)
				}
			}
			continue
		}
		if s.clientGen(in.name) != in.gen {
			continue // stale delivery from a superseded connection
		}
		if in.msg != nil && in.msg.Type == transport.MsgPong {
			// Before the tasked-slot bookkeeping: a pong must never release
			// a pending task.
			if !s.mon.IsProbing(in.name) {
				continue
			}
			s.met.probe("ok")
			if err := s.healthEdge(round, s.mon.ProbeResult(in.name, true, now)); err != nil {
				return nil, nil, err
			}
			// Revived mid-round: if the round still cannot reach its
			// trigger with what is in flight and queued, task the recovered
			// client (the parked-round resume path).
			need := minUpdates
			if deadlineFired {
				need = quorum
			}
			if len(updates)+pending+rq.Len() < need && !participated[in.name] {
				if err := redispatch(reconcile.Task{Client: in.name, Round: round, Attempt: 1, Origin: "probe"}, now); err != nil {
					return nil, nil, err
				}
			}
			continue
		}
		wasTasked := s.setTasked(in.name, -1)
		t, assigned := assignment[in.name]
		if assigned {
			delete(assignment, in.name)
		}
		if in.err != nil {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", in.name, in.err))
			s.met.failure("conn")
			s.markDead(in.name)
			if s.mon.IsProbing(in.name) {
				// The connection died between the ping and its pong.
				s.met.probe("fail")
				if err := s.healthEdge(round, s.mon.ProbeResult(in.name, false, now)); err != nil {
					return nil, nil, err
				}
				continue
			}
			if err := s.healthEdge(round, s.mon.Observe(in.name, false, now)); err != nil {
				return nil, nil, err
			}
			if wasTasked == round {
				pending--
				if assigned {
					requeue(t, now)
				}
			}
			continue
		}
		u, uerr := s.handleReply(in.name, in.msg)
		switch {
		case uerr != nil:
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", in.name, uerr))
			s.met.failure("reject")
			if wasTasked == round {
				// An execution failure (MsgError reply) or a garbled
				// payload: the slot retries like any other failure.
				pending--
				if err := s.healthEdge(round, s.mon.Observe(in.name, false, now)); err != nil {
					return nil, nil, err
				}
				if assigned {
					requeue(t, now)
				}
			}
		case wasTasked == round:
			pending--
			if err := s.healthEdge(round, s.mon.Observe(in.name, true, now)); err != nil {
				return nil, nil, err
			}
			u.Round = round
			if err := s.logUpdate(round, u, in.msg.Payload); err != nil {
				return nil, nil, err
			}
			rec.BytesUp += int64(u.PayloadBytes)
			updates = append(updates, u)
			participated[in.name] = true
		case wasTasked < 0:
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: unsolicited update (not tasked)", in.name))
			s.met.failure("reject")
		case s.cfg.AsyncAggregator != nil:
			if err := s.healthEdge(round, s.mon.Observe(in.name, true, now)); err != nil {
				return nil, nil, err
			}
			u.Round = wasTasked
			late = append(late, u)
		default:
			if err := s.healthEdge(round, s.mon.Observe(in.name, true, now)); err != nil {
				return nil, nil, err
			}
			rec.LateDropped = append(rec.LateDropped, in.name)
		}
	}
	if len(updates) < quorum {
		// Mass failure left the round short. The async path finalizes what
		// it has as a degraded partial round — FedAsync already tolerates
		// weight drift from missing participants — provided at least one
		// update arrived; the synchronous path must fail.
		if s.cfg.AsyncAggregator != nil && len(updates) > 0 {
			rec.Degraded = true
			s.met.degraded.Inc()
			return updates, late, nil
		}
		return nil, nil, fmt.Errorf("fl: round %d quorum not met after reconciliation: %d/%d updates (failures: %v)",
			round, len(updates), quorum, rec.Failures)
	}
	if len(updates) < minUpdates {
		// At or above quorum but short of the trigger: the deadline or
		// the parking budget cut a mass-failure round short.
		rec.Degraded = true
		s.met.degraded.Inc()
	}
	return updates, late, nil
}

// handleReply turns one inbound message into a ClientUpdate.
func (s *Server) handleReply(name string, msg *transport.Message) (*ClientUpdate, error) {
	if msg.Type != transport.MsgUpdate {
		return nil, fmt.Errorf("expected update, got %s: %s", msg.Type, msg.Meta["error"])
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
	loss, _ := strconv.ParseFloat(msg.Meta["train_loss"], 64)
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
