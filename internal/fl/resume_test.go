package fl

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clinfl/internal/fl/durable"
	"clinfl/internal/metrics"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

// fastBackoff keeps reconnect loops snappy in tests.
func fastBackoff() Backoff {
	return Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond}
}

// TestClientSessionResumeAfterCorruptTask corrupts one client's round-0
// task frame in transit. The client's read fails, it redials presenting
// its session token, the server re-attaches the session mid-gather and
// re-sends the in-flight task, and the round still aggregates every
// tasked client — the corruption costs a retry, not a participant.
func TestClientSessionResumeAfterCorruptTask(t *testing.T) {
	network := transport.NewMemNetwork()
	defer network.Close()
	proj := testProject(t, "flaky", "steady")
	reg := metrics.NewRegistry()
	srv, err := NewServer(ServerConfig{
		ExpectedClients: 2,
		Rounds:          2,
		MinClients:      2,
		RegisterTimeout: 10 * time.Second,
		VerifyToken:     proj.VerifyToken,
		Logf:            quietLogf,
		Listener:        network,
		Metrics:         reg,
	}, proj.ServerKit)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	execs := map[string]*fakeExecutor{
		"flaky": {name: "flaky", samples: 10, value: 1},
		// steady's training delay holds the gather open while flaky's
		// reconnect lands, making the re-attach ordering deterministic.
		"steady": {name: "steady", samples: 30, value: 2, delay: 750 * time.Millisecond},
	}
	var flakyDials atomic.Int32
	dialers := map[string]func() (transport.MessageConn, error){
		"flaky": func() (transport.MessageConn, error) {
			down := transport.LinkProfile{}
			if flakyDials.Add(1) == 1 {
				// Down-direction message 0 is the register ack; message 1
				// is the round-0 task, which arrives bit-flipped.
				down.CorruptMsgs = []int{1}
			}
			return network.Dial("flaky", transport.LinkProfile{}, down)
		},
		"steady": func() (transport.MessageConn, error) {
			return network.Dial("steady", transport.LinkProfile{}, transport.LinkProfile{})
		},
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	finals := make(map[string]map[string]*tensor.Matrix)
	for name, exec := range execs {
		cl, err := NewClient(ClientConfig{
			Logf:          quietLogf,
			Dialer:        dialers[name],
			Reconnect:     true,
			MaxReconnects: 10,
			Backoff:       fastBackoff(),
		}, proj.ClientKits[name], exec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			final, err := cl.Run()
			if err != nil {
				t.Errorf("client %s: %v", name, err)
				return
			}
			mu.Lock()
			finals[name] = final
			mu.Unlock()
		}(name)
	}

	res, err := srv.Run(initialWeights())
	if err != nil {
		t.Fatalf("server run: %v", err)
	}
	wg.Wait()

	want := 1.75 // FedAvg of 1 (n=10) and 2 (n=30)
	if got := res.FinalWeights["layer.w"].At(0, 0); got != want {
		t.Errorf("final weight %v, want %v", got, want)
	}
	for name, final := range finals {
		if got := final["layer.w"].At(0, 0); got != want {
			t.Errorf("client %s final weight %v, want %v", name, got, want)
		}
	}
	for _, rec := range res.History.Rounds {
		if len(rec.Participants) != 2 {
			t.Errorf("round %d participants %v, want both clients", rec.Round, rec.Participants)
		}
	}
	// The corrupted task never reached an executor: flaky ran each round
	// exactly once, off the re-sent task in round 0.
	if calls := execs["flaky"].calls; calls != 2 {
		t.Errorf("flaky executed %d rounds, want 2", calls)
	}
	if got := flakyDials.Load(); got < 2 {
		t.Errorf("flaky dialed %d times, want a reconnect after the corrupt frame", got)
	}
	if got := reg.Counter("fl_session_resumes_total", "").Value(); got < 1 {
		t.Errorf("fl_session_resumes_total = %d, want >= 1", got)
	}
}

// TestServerRestartResumesFromWAL kills a WAL-backed server mid-gather —
// after one client's round-1 update is already durable — then starts a
// fresh server process over the same WAL. The clients ride out the outage
// via session resume, the replacement server re-seeds the recovered update
// without re-training that client, re-tasks only the unheard one, and the
// federation finishes with the exact model an uninterrupted run produces.
func TestServerRestartResumesFromWAL(t *testing.T) {
	proj := testProject(t, "c1", "c2")
	walPath := filepath.Join(t.TempDir(), "run.wal")
	reg := metrics.NewRegistry()

	net1 := transport.NewMemNetwork()
	var network atomic.Pointer[transport.MemNetwork]
	network.Store(net1)

	mkServer := func(wal *durable.WAL, ln transport.MessageListener) *Server {
		srv, err := NewServer(ServerConfig{
			ExpectedClients: 2,
			Rounds:          3,
			MinClients:      2,
			RegisterTimeout: 20 * time.Second,
			VerifyToken:     proj.VerifyToken,
			Logf:            quietLogf,
			Listener:        ln,
			WAL:             wal,
			Metrics:         reg,
		}, proj.ServerKit)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	// c1 replies instantly; c2's training delay guarantees the crash —
	// triggered by the first durable round-1 update — fires while c2's
	// update is still outstanding, so the WAL is left with an open round.
	execs := map[string]*fakeExecutor{
		"c1": {name: "c1", samples: 10, value: 1},
		"c2": {name: "c2", samples: 30, value: 2, delay: 400 * time.Millisecond},
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	finals := make(map[string]map[string]*tensor.Matrix)
	for name, exec := range execs {
		name := name
		cl, err := NewClient(ClientConfig{
			Logf:          quietLogf,
			Reconnect:     true,
			MaxReconnects: 50,
			Backoff:       fastBackoff(),
			Dialer: func() (transport.MessageConn, error) {
				return network.Load().Dial(name, transport.LinkProfile{}, transport.LinkProfile{})
			},
		}, proj.ClientKits[name], exec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			final, err := cl.Run()
			if err != nil {
				t.Errorf("client %s: %v", name, err)
				return
			}
			mu.Lock()
			finals[name] = final
			mu.Unlock()
		}(name)
	}

	// Server 1: dies the instant round 1's first client update is durable.
	var srv1 *Server
	var crash sync.Once
	wal1, err := durable.Open(walPath, durable.Options{Metrics: reg, OnAppend: func(_ int64, rec *durable.Record) {
		if rec.Type == durable.RecUpdatePayload && rec.Round == 1 {
			crash.Do(func() { _ = srv1.Close() })
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv1 = mkServer(wal1, net1)
	if _, err := srv1.Run(initialWeights()); err == nil {
		t.Fatal("server 1 survived its scripted crash")
	}
	if err := wal1.Close(); err != nil {
		t.Fatal(err)
	}

	// Server 2: a fresh process over the same WAL and a fresh network the
	// clients' dialer picks up on their next reconnect attempt.
	net2 := transport.NewMemNetwork()
	defer net2.Close()
	network.Store(net2)
	wal2, err := durable.Open(walPath, durable.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	st := wal2.Recovered()
	if st.Open == nil || st.Open.Round != 1 {
		t.Fatalf("recovered state has no open round 1: %+v", st.Open)
	}
	if len(st.Open.Updates) < 1 {
		t.Fatal("crash left no pending update in the WAL")
	}
	srv2 := mkServer(wal2, net2)
	defer srv2.Close()
	res, err := srv2.Run(initialWeights())
	if err != nil {
		t.Fatalf("server 2 run: %v", err)
	}
	srv2.Close() // release any client still blocked on a read
	wg.Wait()

	want := 1.75 // FedAvg of 1 (n=10) and 2 (n=30)
	if got := res.FinalWeights["layer.w"].At(0, 0); got != want {
		t.Errorf("final weight %v, want %v", got, want)
	}
	for name, final := range finals {
		if got := final["layer.w"].At(0, 0); got != want {
			t.Errorf("client %s final weight %v, want %v", name, got, want)
		}
	}
	// Server 2's history starts at the resumed round, and the resumed
	// round still aggregated both clients: the durable update plus the
	// re-tasked one.
	if len(res.History.Rounds) != 2 {
		t.Fatalf("server 2 ran %d rounds, want 2 (resume at round 1 of 3)", len(res.History.Rounds))
	}
	if got := res.History.Rounds[0].Round; got != 1 {
		t.Errorf("server 2 first round %d, want the open round 1", got)
	}
	if got := len(res.History.Rounds[0].Participants); got != 2 {
		t.Errorf("resumed round had %d participants, want 2: %v", got, res.History.Rounds[0].Participants)
	}
	// The re-seeded update's payload counts in the resumed round's bytes as
	// a live one does: both rounds carry the same two raw payloads.
	if up1, up2 := res.History.Rounds[0].BytesUp, res.History.Rounds[1].BytesUp; up1 != up2 || up1 == 0 {
		t.Errorf("resumed round BytesUp %d, next round %d; want them equal and nonzero", up1, up2)
	}
	// c1's durable update was re-seeded, never re-trained: one execution
	// per round. c2 re-trained round 1 after the re-sent task.
	if calls := execs["c1"].calls; calls != 3 {
		t.Errorf("c1 executed %d rounds, want 3 (recovered update must not re-train)", calls)
	}
	if calls := execs["c2"].calls; calls < 3 {
		t.Errorf("c2 executed %d rounds, want >= 3", calls)
	}
	if got := reg.Counter("fl_recoveries_total", "").Value(); got < 1 {
		t.Errorf("fl_recoveries_total = %d, want >= 1", got)
	}
}

// TestRoundToleratesCorruptAndDroppedClients scripts one client whose
// update frame corrupts in transit and one whose executor drops the round
// outright: both must land as per-client failure records while the round
// aggregates the healthy clients — a damaged participant never aborts the
// server.
func TestRoundToleratesCorruptAndDroppedClients(t *testing.T) {
	network := transport.NewMemNetwork()
	defer network.Close()
	proj := testProject(t, "good", "extra", "corrupt", "dropper")
	srv, err := NewServer(ServerConfig{
		ExpectedClients: 4,
		Rounds:          1,
		RegisterTimeout: 10 * time.Second,
		VerifyToken:     proj.VerifyToken,
		Logf:            quietLogf,
		Listener:        network,
	}, proj.ServerKit)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	execs := map[string]Executor{
		"good":    &fakeExecutor{name: "good", samples: 10, value: 1},
		"extra":   &fakeExecutor{name: "extra", samples: 30, value: 2},
		"corrupt": &fakeExecutor{name: "corrupt", samples: 50, value: 9},
		"dropper": &fakeExecutor{name: "dropper", samples: 50, value: 9, fail: true},
	}
	// Up-direction message 0 is the registration; message 1 — the round-0
	// update — arrives bit-flipped, so the server's read of it fails.
	faults := map[string]transport.LinkProfile{
		"corrupt": {CorruptMsgs: []int{1}},
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	finals := make(map[string]map[string]*tensor.Matrix)
	for name, exec := range execs {
		name := name
		cl, err := NewClient(ClientConfig{
			Logf: quietLogf,
			Dialer: func() (transport.MessageConn, error) {
				return network.Dial(name, faults[name], transport.LinkProfile{})
			},
		}, proj.ClientKits[name], exec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			// The damaged clients' own runs fail; the server-side records
			// are what this test asserts on.
			final, err := cl.Run()
			if err == nil {
				mu.Lock()
				finals[name] = final
				mu.Unlock()
			}
		}(name)
	}

	res, err := srv.Run(initialWeights())
	if err != nil {
		t.Fatalf("server run must survive damaged clients, got: %v", err)
	}
	srv.Close() // unblock the corrupt client still waiting on a read
	wg.Wait()

	want := 1.75 // FedAvg of the two healthy clients: 1 (n=10), 2 (n=30)
	if got := res.FinalWeights["layer.w"].At(0, 0); got != want {
		t.Errorf("final weight %v, want %v (damaged updates must not aggregate)", got, want)
	}
	rec := res.History.Rounds[0]
	if len(rec.Participants) != 2 {
		t.Errorf("participants %v, want exactly the healthy pair", rec.Participants)
	}
	for _, name := range []string{"corrupt", "dropper"} {
		found := false
		for _, f := range rec.Failures {
			if strings.HasPrefix(f, name+":") {
				found = true
			}
		}
		if !found {
			t.Errorf("failures %v missing a record for %q", rec.Failures, name)
		}
	}
	for _, name := range []string{"good", "extra"} {
		if got := finals[name]["layer.w"].At(0, 0); got != want {
			t.Errorf("client %s final weight %v, want %v", name, got, want)
		}
	}
}

// patternExecutor "trains" to a fixed, site-specific weight map with
// enough spread per tensor that the lossy codecs actually lose something.
type patternExecutor struct {
	name    string
	samples int
	phase   float64
	calls   atomic.Int32
}

func (e *patternExecutor) Name() string { return e.name }

func (e *patternExecutor) ExecuteRound(round int, global map[string]*tensor.Matrix) (*ClientUpdate, error) {
	e.calls.Add(1)
	return &ClientUpdate{
		ClientName: e.name, Round: round, Weights: patternWeights(global, e.phase),
		NumSamples: e.samples, TrainLoss: 0.5,
	}, nil
}

func patternWeights(like map[string]*tensor.Matrix, phase float64) map[string]*tensor.Matrix {
	out := make(map[string]*tensor.Matrix, len(like))
	for name, m := range like {
		w := tensor.New(m.Rows(), m.Cols())
		for i := range w.Data() {
			w.Data()[i] = math.Sin(phase+float64(i)*0.7) * (1 + float64(len(name)+i)/3)
		}
		out[name] = w
	}
	return out
}

// TestControllerLogsUpdatesAsPayloads: the in-process Controller logs
// what the Server logs. Each accepted update is one RecUpdatePayload whose
// raw payload decodes to the executor's weights exactly, and no RecUpdate
// is appended.
func TestControllerLogsUpdatesAsPayloads(t *testing.T) {
	var kinds []durable.RecordType
	var payloads [][]byte
	wal, err := durable.Open(filepath.Join(t.TempDir(), "run.wal"), durable.Options{
		NoSync: true,
		OnAppend: func(_ int64, rec *durable.Record) {
			kinds = append(kinds, rec.Type)
			if rec.Type == durable.RecUpdatePayload {
				payloads = append(payloads, bytes.Clone(rec.Payload))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	execs := []Executor{
		&patternExecutor{name: "a", samples: 10, phase: 1},
		&patternExecutor{name: "b", samples: 30, phase: 1},
	}
	ctrl, err := NewController(ControllerConfig{Rounds: 2, MinClients: 2, WAL: wal}, execs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Run(context.Background(), initialWeights()); err != nil {
		t.Fatal(err)
	}
	for _, k := range kinds {
		if k == durable.RecUpdate {
			t.Fatalf("the in-process Controller appended a %s record: %v", k, kinds)
		}
	}
	if len(payloads) != 4 {
		t.Fatalf("%d update payload records for 2 sites over 2 rounds, want 4", len(payloads))
	}
	want := patternWeights(initialWeights(), 1)
	for i, p := range payloads {
		got, err := DecodeWeights(p)
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			if !w.Equal(got[name]) {
				t.Errorf("payload %d: %s logged as %v, want %v", i, name, got[name].Data(), w.Data())
			}
		}
	}
}

// TestServerResumesMixedRecordKinds resumes an open round whose log was
// started by a pre-v2 binary (v1 magic, an f64 update record) and
// continued by this one (payload records, one per uplink codec), with one
// site still unheard. The resumed round must aggregate every recovered
// update in the form the live round would have — DecodeWeights of the
// very bytes that crossed the wire — so its model is bit-identical to an
// uninterrupted federation of the same six sites.
func TestServerResumesMixedRecordKinds(t *testing.T) {
	sites := []struct {
		name, codec string
		samples     int
	}{
		{"s-f64", "raw", 10}, // logged by the old binary as decoded f64
		{"s-raw", "raw", 20},
		{"s-f32", "f32", 30},
		{"s-int8", "int8", 40},
		{"s-topk", "topk:0.5", 50},
		{"s-live", "int8", 60}, // tasked before the crash, never heard from
	}
	names := make([]string, len(sites))
	for i, s := range sites {
		names[i] = s.name
	}
	proj := testProject(t, names...)

	// federate runs one round over a fresh in-memory network and reports
	// the final model and how many times each site trained.
	federate := func(wal *durable.WAL) (*Result, map[string]int32) {
		t.Helper()
		network := transport.NewMemNetwork()
		defer network.Close()
		srv, err := NewServer(ServerConfig{
			ExpectedClients: len(sites),
			Rounds:          1,
			MinClients:      len(sites),
			RegisterTimeout: 20 * time.Second,
			VerifyToken:     proj.VerifyToken,
			Logf:            quietLogf,
			Listener:        network,
			AllowTopKUplink: true,
			WAL:             wal,
		}, proj.ServerKit)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		execs := make(map[string]*patternExecutor, len(sites))
		var wg sync.WaitGroup
		for i, s := range sites {
			exec := &patternExecutor{name: s.name, samples: s.samples, phase: float64(i + 1)}
			execs[s.name] = exec
			cl, err := NewClient(ClientConfig{
				Logf:  quietLogf,
				Codec: s.codec,
				Dialer: func() (transport.MessageConn, error) {
					return network.Dial(exec.name, transport.LinkProfile{}, transport.LinkProfile{})
				},
			}, proj.ClientKits[s.name], exec)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := cl.Run(); err != nil {
					t.Errorf("client %s: %v", exec.name, err)
				}
			}()
		}
		res, err := srv.Run(initialWeights())
		if err != nil {
			t.Fatalf("server run: %v", err)
		}
		srv.Close()
		wg.Wait()
		calls := make(map[string]int32, len(execs))
		for name, exec := range execs {
			calls[name] = exec.calls.Load()
		}
		return res, calls
	}

	want, _ := federate(nil)

	// The old binary's part of the log: round 0 opened, all six tasked,
	// s-f64's update logged as decoded weights. Only pre-v2 record kinds,
	// so re-stamping the magic gives exactly the file it would have left.
	walPath := filepath.Join(t.TempDir(), "run.wal")
	old, err := durable.Open(walPath, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(old.AppendRoundOpen(0))
	for _, name := range names {
		must(old.AppendTaskAssigned(0, name))
	}
	must(old.AppendUpdate(0, "s-f64", 10, 0.5, 0, patternWeights(initialWeights(), 1)))
	must(old.Close())
	f, err := os.OpenFile(walPath, os.O_WRONLY, 0)
	must(err)
	_, err = f.WriteAt([]byte("CFWAL1\n"), 0)
	must(err)
	must(f.Close())

	// This binary's first life: it resumed the round and logged four more
	// uplinks, verbatim, before dying in turn.
	first, err := durable.Open(walPath, durable.Options{})
	if err != nil {
		t.Fatalf("v1 log rejected: %v", err)
	}
	for i, s := range sites[1:5] {
		codec, err := CodecByName(s.codec)
		must(err)
		payload, err := codec.Encode(patternWeights(initialWeights(), float64(i+2)))
		must(err)
		must(first.AppendUpdatePayload(0, s.name, s.samples, 0.5, payload))
	}
	must(first.Close())

	wal, err := durable.Open(walPath, durable.Options{})
	must(err)
	defer wal.Close()
	if open := wal.Recovered().Open; open == nil || len(open.Tasked) != 6 || len(open.Updates) != 5 {
		t.Fatalf("recovered open round: %+v", open)
	}
	got, calls := federate(wal)

	for name, w := range want.FinalWeights {
		if !w.Equal(got.FinalWeights[name]) {
			t.Errorf("%s: resumed model differs from the uninterrupted run:\n got %v\nwant %v", name, got.FinalWeights[name].Data(), w.Data())
		}
	}
	for name, n := range calls {
		want := int32(0)
		if name == "s-live" {
			want = 1
		}
		if n != want {
			t.Errorf("%s trained %d times on resume, want %d: only s-live was unheard", name, n, want)
		}
	}
	round := got.History.Rounds[0]
	if len(round.Participants) != 6 || len(round.Failures) != 0 {
		t.Errorf("resumed round: participants %v, failures %v", round.Participants, round.Failures)
	}
}

// TestResumeTreatsUndecodablePayloadAsLostUpdate: a recovered payload that
// no longer decodes costs that one update — the failure is recorded and
// the client runs again — never the run.
func TestResumeTreatsUndecodablePayloadAsLostUpdate(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "run.wal")
	wal, err := durable.Open(walPath, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := Int8Codec{}.Encode(patternWeights(initialWeights(), 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		wal.AppendRoundOpen(0),
		wal.AppendTaskAssigned(0, "a"),
		wal.AppendTaskAssigned(0, "b"),
		wal.AppendUpdatePayload(0, "a", 10, 0.5, good),
		wal.AppendUpdatePayload(0, "b", 30, 0.5, good[:len(good)/2]),
		wal.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if wal, err = durable.Open(walPath, durable.Options{}); err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	a := &patternExecutor{name: "a", samples: 10, phase: 1}
	b := &patternExecutor{name: "b", samples: 30, phase: 2}
	ctrl, err := NewController(ControllerConfig{Rounds: 1, MinClients: 2, WAL: wal}, []Executor{a, b})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run(context.Background(), initialWeights())
	if err != nil {
		t.Fatalf("an undecodable recovered payload aborted the run: %v", err)
	}
	if a.calls.Load() != 0 || b.calls.Load() != 1 {
		t.Errorf("a ran %d times, b %d; want the intact update re-seeded and only b re-run", a.calls.Load(), b.calls.Load())
	}
	round := res.History.Rounds[0]
	if len(round.Participants) != 2 {
		t.Errorf("participants %v, want both", round.Participants)
	}
	if len(round.Failures) != 1 || !strings.HasPrefix(round.Failures[0], "b: ") {
		t.Errorf("failures %v, want one naming b's lost update", round.Failures)
	}
}

// TestResumeTreatsMalformedUpdateRecordAsLostUpdate: a server that logged
// uplinks before validating them could leave an update record in an open
// round that no aggregate can use — no samples, a mis-shaped parameter, a
// parameter the model does not have. Replaying such a log must cost that
// one update (the failure is recorded and the client runs again), not
// abort this run and every restart after it.
func TestResumeTreatsMalformedUpdateRecordAsLostUpdate(t *testing.T) {
	good, err := Int8Codec{}.Encode(patternWeights(initialWeights(), 1))
	if err != nil {
		t.Fatal(err)
	}
	transposed := patternWeights(initialWeights(), 2)
	for name, w := range transposed {
		transposed[name] = tensor.New(w.Cols()+1, w.Rows())
	}
	extra := patternWeights(initialWeights(), 2)
	extra["not.in.the.model"] = tensor.New(1, 1)
	for _, tc := range []struct {
		name    string
		samples int
		weights map[string]*tensor.Matrix
	}{
		{"zero samples", 0, patternWeights(initialWeights(), 2)},
		{"wrong shape", 30, transposed},
		{"extra param", 30, extra},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad, err := EncodeWeights(tc.weights)
			if err != nil {
				t.Fatal(err)
			}
			walPath := filepath.Join(t.TempDir(), "run.wal")
			wal, err := durable.Open(walPath, durable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, err := range []error{
				wal.AppendRoundOpen(0),
				wal.AppendTaskAssigned(0, "a"),
				wal.AppendTaskAssigned(0, "b"),
				wal.AppendUpdatePayload(0, "a", 10, 0.5, good),
				wal.AppendUpdatePayload(0, "b", tc.samples, 0.5, bad),
				wal.Close(),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
			if wal, err = durable.Open(walPath, durable.Options{}); err != nil {
				t.Fatal(err)
			}
			defer wal.Close()
			a := &patternExecutor{name: "a", samples: 10, phase: 1}
			b := &patternExecutor{name: "b", samples: 30, phase: 2}
			ctrl, err := NewController(ControllerConfig{Rounds: 1, MinClients: 2, WAL: wal}, []Executor{a, b})
			if err != nil {
				t.Fatal(err)
			}
			res, err := ctrl.Run(context.Background(), initialWeights())
			if err != nil {
				t.Fatalf("a malformed recovered update aborted the run: %v", err)
			}
			if a.calls.Load() != 0 || b.calls.Load() != 1 {
				t.Errorf("a ran %d times, b %d; want the intact update re-seeded and only b re-run", a.calls.Load(), b.calls.Load())
			}
			round := res.History.Rounds[0]
			if len(round.Participants) != 2 {
				t.Errorf("participants %v, want both", round.Participants)
			}
			if len(round.Failures) != 1 || !strings.HasPrefix(round.Failures[0], "b: ") {
				t.Errorf("failures %v, want one naming b's lost update", round.Failures)
			}
		})
	}
}
