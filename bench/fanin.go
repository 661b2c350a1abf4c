package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"clinfl/internal/fl"
	"clinfl/internal/fl/durable"
	"clinfl/internal/model"
	"clinfl/internal/nn"
	"clinfl/internal/provision"
	"clinfl/internal/sim"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

const (
	faninCodec = "int8"
	// stubVocab sizes the LSTM the stub updates are shaped like: 172
	// tokens give the 417k-parameter, 3.3 MB-raw update of the paper's
	// LSTM row. It is fixed so byte counts are the same for every seed.
	stubVocab = 172
	// Registration is set-up, not a measured operation: a box whose disk
	// stalls the WAL's per-session fsync must slow set-up, not fail the run.
	dialTimeout     = time.Minute
	registerTimeout = 2 * time.Minute
)

// stubExecutor is the benchmark-owned site: local training costs nothing,
// so the coordinator's scatter/gather, codec, FedAvg, framing and TLS do
// all the work. It returns the same pre-built update every round, which
// makes the expected global model closed-form.
type stubExecutor struct {
	name    string
	weights map[string]*tensor.Matrix
	samples int
}

func (s *stubExecutor) Name() string    { return s.name }
func (s *stubExecutor) NumSamples() int { return s.samples }
func (s *stubExecutor) ExecuteRound(round int, _ map[string]*tensor.Matrix) (*fl.ClientUpdate, error) {
	return &fl.ClientUpdate{ClientName: s.name, Round: round, Weights: s.weights, NumSamples: s.samples, TrainLoss: 0.5}, nil
}

// faninInputs is everything generated from the seed for a fan-in
// workload, plus the benchmark's own expectation of the result.
type faninInputs struct {
	proj    *provision.Project
	execs   []fl.Executor
	initial map[string]*tensor.Matrix
	// reference is the plain sample-weighted mean of decode(encode(w_i)):
	// what every round's global model must equal.
	reference map[string]*tensor.Matrix
	rawBytes  int // one update, raw float64 wire format
	encBytes  int // the same update through the workload codec
	provision float64
}

func newFaninInputs(cfg config, sz sizes) (*faninInputs, error) {
	in := &faninInputs{}
	names := make([]string, sz.faninSites)
	for i := range names {
		names[i] = fmt.Sprintf("site-%02d", i)
	}
	start := time.Now()
	proj, err := provision.Provision(provision.Config{ProjectName: "bench", ServerName: "localhost", ClientNames: names})
	if err != nil {
		return nil, err
	}
	in.proj = proj
	in.provision = time.Since(start).Seconds()

	mdl, err := model.New(model.SpecLSTM, stubVocab, bertMaxLen, 2, cfg.seed)
	if err != nil {
		return nil, err
	}
	in.initial = nn.SnapshotWeights(mdl.Params())
	codec, err := fl.CodecByName(faninCodec)
	if err != nil {
		return nil, err
	}
	in.reference = make(map[string]*tensor.Matrix, len(in.initial))
	for name, w := range in.initial {
		in.reference[name] = tensor.New(w.Rows(), w.Cols())
	}
	var total float64
	in.execs = make([]fl.Executor, sz.faninSites)
	for i, name := range names {
		// Per-site seeded perturbation of the base model.
		rng := tensor.NewRNG(cfg.seed*1000 + int64(i) + 1)
		weights := make(map[string]*tensor.Matrix, len(in.initial))
		for _, p := range nn.SortedByName(mdl.Params()) {
			w := p.W.Clone()
			if err := w.AddScaledInPlace(1, rng.Normal(w.Rows(), w.Cols(), 0, 0.01)); err != nil {
				return nil, err
			}
			weights[p.Name] = w
		}
		samples := 10 + i
		in.execs[i] = &stubExecutor{name: name, weights: weights, samples: samples}

		blob, err := codec.Encode(weights)
		if err != nil {
			return nil, err
		}
		seen, err := codec.Decode(blob)
		if err != nil {
			return nil, err
		}
		for pname, acc := range in.reference {
			if err := acc.AddScaledInPlace(float64(samples), seen[pname]); err != nil {
				return nil, err
			}
		}
		total += float64(samples)
		if i == 0 {
			raw, err := fl.EncodeWeights(weights)
			if err != nil {
				return nil, err
			}
			in.rawBytes, in.encBytes = len(raw), len(blob)
		}
	}
	for _, acc := range in.reference {
		d := acc.Data()
		for i := range d {
			d[i] /= total
		}
	}
	return in, nil
}

// federation is the outcome of one networked federation.
type federation struct {
	res   *fl.Result
	marks *roundMarks
	// registered is when the last site passed admission: registration and
	// the TLS handshakes are set-up, rounds start right after.
	registered time.Time
	// firstDial / lastAck bracket the handshakes (traced runs only).
	firstDial, lastAck time.Time
}

// wall is the timed section of one federation: last registration to the
// end of the last round.
func (f *federation) wall() float64 {
	return f.marks.end[len(f.marks.end)-1].Sub(f.registered).Seconds()
}

// runFederation provisions nothing: it starts a server on a loopback
// port with mutual TLS, connects every site, runs the rounds and tears
// everything down. wal may be nil.
func runFederation(in *faninInputs, rounds int, wal *durable.WAL, seed int64, rec *Recorder) (*federation, error) {
	fed := &federation{marks: &roundMarks{}}
	tlsCfg, err := in.proj.ServerKit.ServerTLS()
	if err != nil {
		return nil, err
	}
	ln, err := transport.ListenMessages("127.0.0.1:0", tlsCfg)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		ln = tracedListener{MessageListener: ln, rec: rec}
	}
	var mu sync.Mutex
	admitted := 0
	quiet := func(string, ...any) {}
	srv, err := fl.NewServer(fl.ServerConfig{
		ExpectedClients: len(in.execs),
		RegisterTimeout: registerTimeout,
		Rounds:          rounds,
		Seed:            seed,
		Codec:           faninCodec,
		Aggregator:      traceAggregator(rec),
		Validate:        fed.marks.hook(rec, nil),
		VerifyToken: func(name, token string) bool {
			ok := in.proj.VerifyToken(name, token)
			mu.Lock()
			if admitted++; admitted == len(in.execs) {
				fed.registered = time.Now()
			}
			mu.Unlock()
			return ok
		},
		Logf:     quiet,
		Listener: ln,
		WAL:      wal,
	}, in.proj.ServerKit)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	addr := srv.Addr()

	clients := make([]*fl.Client, len(in.execs))
	for i, ex := range traceExecutors(in.execs, rec) {
		kit := in.proj.ClientKits[ex.Name()]
		site := ex.Name()
		client, err := fl.NewClient(fl.ClientConfig{
			ServerAddr: addr,
			Codec:      faninCodec,
			Logf:       quiet,
			Dialer: func() (transport.MessageConn, error) {
				cfg, err := kit.ClientTLS()
				if err != nil {
					return nil, err
				}
				dialAt := time.Now()
				conn, err := transport.Dial(addr, cfg, dialTimeout)
				if err != nil || rec == nil {
					return conn, err
				}
				mu.Lock()
				if fed.firstDial.IsZero() || dialAt.Before(fed.firstDial) {
					fed.firstDial = dialAt
				}
				mu.Unlock()
				return &tracedConn{MessageConn: conn, rec: rec, site: site, onAck: func(at time.Time) {
					mu.Lock()
					if at.After(fed.lastAck) {
						fed.lastAck = at
					}
					mu.Unlock()
				}}, nil
			},
		}, kit, ex)
		if err != nil {
			_ = srv.Close()
			return nil, err
		}
		clients[i] = client
	}
	clientErrs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, client := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, clientErrs[i] = client.Run()
		}()
	}
	fed.res, err = srv.Run(in.initial)
	if err != nil {
		_ = srv.Close() // unblocks the sites
		wg.Wait()
		return nil, err
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		return nil, err
	}
	for _, cerr := range clientErrs {
		if cerr != nil {
			return nil, cerr
		}
	}
	return fed, nil
}

// faninRun is one fan-in workload run: its inputs, its set-up samples and
// the totals over its timed federations.
type faninRun struct {
	cfg    config
	sz     sizes
	run    *Run
	in     *faninInputs
	setups []float64

	durations  []float64
	roundWall  float64 // sum of federation walls (no recovery)
	rounds     int
	updates    int
	bytesUp    int64
	bytesDown  int64
	wireBytes  int64
	handshakeS float64
}

// newFaninRun builds the inputs and runs the untimed warm-up federation
// (for the durable workload one of the timed shape: WAL, replay, delete),
// setupPasses times; the median pass is reported as setup_s.
func newFaninRun(workload string, cfg config, withWAL bool) (*faninRun, error) {
	f := &faninRun{cfg: cfg, sz: sizesFor(cfg.seconds, cfg.smoke), run: newRun(workload, cfg)}
	for pass := 0; pass < setupPasses; pass++ {
		start := passStart(pass)
		var err error
		if f.in, err = newFaninInputs(cfg, f.sz); err != nil {
			return nil, err
		}
		if withWAL {
			_, err = runDurableFederation(f.in, f.sz.durableRounds, filepath.Join(cfg.walDir, "warmup.wal"), cfg.seed, nil)
		} else {
			_, err = runFederation(f.in, f.sz.faninWarmRounds, nil, cfg.seed, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up federation: %w", err)
		}
		f.setups = append(f.setups, time.Since(start).Seconds())
	}
	return f, nil
}

// absorb verifies one timed federation and adds it to the totals.
func (f *faninRun) absorb(fed *federation, rounds int, label string) {
	hist := fed.res.History
	sites := len(f.in.execs)
	full := 0
	for _, r := range hist.Rounds {
		f.durations = append(f.durations, r.Duration.Seconds())
		f.updates += len(r.Participants)
		f.bytesUp += r.BytesUp
		f.bytesDown += r.BytesDown
		f.run.updates(sites, len(r.Participants))
		if len(r.Participants) == sites && len(r.Failures) == 0 {
			full++
		}
	}
	f.rounds += len(hist.Rounds)
	f.roundWall += fed.wall()
	f.wireBytes += hist.WireBytesRead + hist.WireBytesWritten
	if f.handshakeS == 0 {
		f.handshakeS = fed.lastAck.Sub(fed.firstDial).Seconds()
	}
	f.run.check(label+"rounds_complete", len(hist.Rounds) == rounds && full == rounds && len(hist.FinishFailures) == 0,
		"%d/%d rounds had all %d participants and no failures", full, rounds, sites)
	worst := maxAbsDiff(fed.res.FinalWeights, f.in.reference)
	f.run.check(label+"fedavg_reference", worst <= 1e-12,
		"final model differs from the independent FedAvg-through-%s reference by %g", faninCodec, worst)
}

// maxAbsDiff is the largest element-wise difference between two weight
// maps (+Inf when their shapes disagree).
func maxAbsDiff(a, b map[string]*tensor.Matrix) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var worst float64
	for name, x := range a {
		y, ok := b[name]
		if !ok || !x.SameShape(y) {
			return math.Inf(1)
		}
		xd, yd := x.Data(), y.Data()
		for i := range xd {
			if d := math.Abs(xd[i] - yd[i]); d > worst || math.IsNaN(d) {
				worst = d
			}
		}
	}
	return worst
}

// setMetrics stores what fanin16_tls and fanin16_durable share.
func (f *faninRun) setMetrics(wall float64, before, after goStats) error {
	m := f.run.Metrics
	n := float64(f.rounds)
	m.setN("setup_s", median(f.setups), len(f.setups))
	m.setN("round_min_s", slices.Min(f.durations), len(f.durations))
	m.set("wall_s", wall)
	m.set("updates_per_s", float64(f.updates)/f.roundWall)
	m.set("bytes_up_per_round", float64(f.bytesUp)/n)
	m.set("bytes_down_per_round", float64(f.bytesDown)/n)
	if !f.cfg.traced() {
		return nil
	}
	st := newSpanStats(f.cfg.rec.Spans())
	m.set("provision.provision_ms", ms(f.in.provision))
	m.set("transport.handshake_ms", ms(f.handshakeS))
	m.set("fl.executor.busy_s_per_round", st.total(spanExecutor).Seconds()/n)
	m.set("fl.executor.max_s_per_round", st.maxPerRound(spanExecutor).Seconds()/n)
	m.set("fl.aggregate.ms_per_round", ms(st.total(spanAggregate).Seconds())/n)
	// The server stamps Duration before the WAL commit appends and the hook.
	m.set("fl.round.uncovered_ratio", 1-sum(f.durations)/f.roundWall)
	m.set("fl.server.scatter_ms_per_round", ms(st.total(spanScatter).Seconds())/n)
	m.set("fl.server.gather_ms_per_round", ms(st.total(spanGather).Seconds())/n)
	self := st.total(spanRound) - st.total(spanScatter) - st.total(spanGather) - st.total(spanAggregate)
	m.set("fl.controller.self_ms_per_round", ms(self.Seconds())/n)
	turn := st.durations(spanTurn)
	m.setN("fl.client.turnaround_ms", ms(median(turn)), len(turn))
	m.set("transport.write_ms_per_round", ms(st.total(spanWrite).Seconds())/n)
	m.set("transport.read_wait_ms_per_round", ms(st.total(spanRead).Seconds())/n)
	m.set("transport.msgs_per_round", float64(len(st.durations(spanWrite))+len(st.durations(spanRead)))/n)
	m.set("transport.wire_bytes_per_round", float64(f.wireBytes)/n)
	m.set("fl.codec.wire_ratio", float64(f.in.encBytes)/float64(f.in.rawBytes))
	setGoMetrics(m, before, after, f.rounds)
	return f.codecStandalone()
}

// codecStandalone times the workload codec on one stub update.
func (f *faninRun) codecStandalone() error {
	codec, err := fl.CodecByName(faninCodec)
	if err != nil {
		return err
	}
	weights := f.in.execs[0].(*stubExecutor).weights
	reps := f.sz.standaloneReps
	var blob []byte
	enc, err := timeIt(reps, func() error {
		var err error
		blob, err = codec.Encode(weights)
		return err
	})
	if err != nil {
		return err
	}
	dec, err := timeIt(reps, func() error {
		_, err := codec.Decode(blob)
		return err
	})
	if err != nil {
		return err
	}
	f.run.Metrics.setN("fl.codec.encode_ms_per_update", ms(enc), reps)
	f.run.Metrics.setN("fl.codec.decode_ms_per_update", ms(dec), reps)
	return nil
}

func runFanin16TLS(cfg config) (*Run, error) {
	f, err := newFaninRun(wlFanin16TLS, cfg, false)
	if err != nil {
		return nil, err
	}
	before := readGoStats()
	cfg.rec.Enable(true)
	fed, err := runFederation(f.in, f.sz.tlsRounds, nil, cfg.seed, cfg.rec)
	if err != nil {
		return nil, err
	}
	addScatterGather(cfg.rec)
	fed.marks.addRoundSpans(cfg.rec, fed.registered)
	cfg.rec.Enable(false)
	after := readGoStats()

	f.absorb(fed, f.sz.tlsRounds, "")
	if err := f.setMetrics(fed.wall(), before, after); err != nil {
		return nil, err
	}
	f.run.Metrics.setN("round_p50_s", median(f.durations), len(f.durations))
	f.run.Metrics.setN("round_p95_s", percentile(f.durations, 95), len(f.durations))
	return f.run, nil
}

// durableFederation is one federation over a fresh WAL, then the restart
// that replays the log.
type durableFederation struct {
	fed             *federation
	walBytes        int64
	appends, fsyncs int64
	recoverS        float64
	recovered       *durable.State
}

// runDurableFederation creates the log at path, runs the federation over
// it, closes it, reopens it — the timed replay into a recovered State —
// and deletes it.
func runDurableFederation(in *faninInputs, rounds int, path string, seed int64, rec *Recorder) (*durableFederation, error) {
	_ = os.Remove(path)
	defer os.Remove(path)
	wal, err := durable.Open(path, durable.Options{})
	if err != nil {
		return nil, err
	}
	d := &durableFederation{}
	rec.Enable(true)
	d.fed, err = runFederation(in, rounds, wal, seed, rec)
	if err == nil {
		addScatterGather(rec)
		d.fed.marks.addRoundSpans(rec, d.fed.registered)
	}
	rec.Enable(false)
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	d.appends, d.fsyncs = wal.Appends(), wal.Fsyncs()
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	d.walBytes = info.Size()

	start := time.Now()
	replayed, err := durable.Open(path, durable.Options{})
	if err != nil {
		return nil, err
	}
	d.recoverS = time.Since(start).Seconds()
	d.recovered = replayed.Recovered()
	return d, replayed.Close()
}

func runFanin16Durable(cfg config) (*Run, error) {
	f, err := newFaninRun(wlFanin16Durabl, cfg, true)
	if err != nil {
		return nil, err
	}
	m, rounds := f.run.Metrics, f.sz.durableRounds

	var recovers []float64
	var walBytes, appends, fsyncs int64
	before := readGoStats()
	for k := 0; k < f.sz.durableFeds; k++ {
		cfg.rec.SetRoundBase(k * rounds)
		d, err := runDurableFederation(f.in, rounds, filepath.Join(cfg.walDir, fmt.Sprintf("fed-%d.wal", k)), cfg.seed, cfg.rec)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("fed%d_", k)
		f.absorb(d.fed, rounds, label)
		walBytes += d.walBytes
		appends += d.appends
		fsyncs += d.fsyncs
		recovers = append(recovers, d.recoverS)

		st := d.recovered
		live, lerr := sim.CanonicalWeightsDigest(d.fed.res.FinalWeights)
		var got string
		var gerr error
		if st.Weights != nil {
			got, gerr = sim.CanonicalWeightsDigest(st.Weights)
		}
		f.run.check(label+"replay_matches_live",
			lerr == nil && gerr == nil && st.LastRound == rounds-1 && st.Open == nil && !st.Torn && got == live,
			"replayed state: committed round %d (want %d), torn=%v, digest %.12s vs live %.12s",
			st.LastRound, rounds-1, st.Torn, got, live)
	}
	after := readGoStats()

	n := float64(f.rounds)
	if err := f.setMetrics(f.roundWall+sum(recovers), before, after); err != nil {
		return nil, err
	}
	m.set("wal_bytes_per_round", float64(walBytes)/n)
	m.setN("recover_s", median(recovers), len(recovers))
	if cfg.traced() {
		m.set("durable.appends_per_round", float64(appends)/n)
		m.set("durable.fsyncs_per_round", float64(fsyncs)/n)
		m.set("durable.replay_mb_per_s", float64(walBytes)/1e6/sum(recovers))
		m.setN("durable.round_p50_ms", ms(median(f.durations)), len(f.durations))
		m.setN("durable.round_p95_ms", ms(percentile(f.durations, 95)), len(f.durations))
		if err := f.walStandalone(); err != nil {
			return nil, err
		}
	}
	return f.run, nil
}

// walStandalone times WAL.AppendUpdate of one stub update on a scratch log.
func (f *faninRun) walStandalone() error {
	path := filepath.Join(f.cfg.walDir, "scratch.wal")
	_ = os.Remove(path)
	defer os.Remove(path)
	wal, err := durable.Open(path, durable.Options{})
	if err != nil {
		return err
	}
	stub := f.in.execs[0].(*stubExecutor)
	round := 0
	appendS, err := timeIt(f.sz.walAppendIters, func() error {
		round++
		return wal.AppendUpdate(round, stub.name, stub.samples, 0.5, f.in.encBytes, stub.weights)
	})
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	f.run.Metrics.setN("durable.append_update_ms", ms(appendS), f.sz.walAppendIters)
	return nil
}
