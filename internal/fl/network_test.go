package fl

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"clinfl/internal/provision"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

// testProject provisions a tiny federation for networked tests.
func testProject(t *testing.T, clients ...string) *provision.Project {
	t.Helper()
	proj, err := provision.Provision(provision.Config{
		ProjectName: "fl-test",
		ServerName:  "localhost",
		ClientNames: clients,
	})
	if err != nil {
		t.Fatal(err)
	}
	return proj
}

func quietLogf(format string, args ...any) {}

func TestNetworkedFederationEndToEnd(t *testing.T) {
	proj := testProject(t, "c1", "c2")
	srv, err := NewServer(ServerConfig{
		Addr:            "127.0.0.1:0",
		ExpectedClients: 2,
		Rounds:          3,
		RegisterTimeout: 10 * time.Second,
		VerifyToken:     proj.VerifyToken,
		Logf:            quietLogf,
	}, proj.ServerKit)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	execs := map[string]*fakeExecutor{
		"c1": {name: "c1", samples: 10, value: 1},
		"c2": {name: "c2", samples: 30, value: 2},
	}
	var wg sync.WaitGroup
	finals := make(map[string]map[string]*tensor.Matrix)
	var mu sync.Mutex
	for name, exec := range execs {
		cl, err := NewClient(ClientConfig{ServerAddr: srv.Addr(), Logf: quietLogf}, proj.ClientKits[name], exec)
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
		t.Fatal(err)
	}
	wg.Wait()

	if len(res.History.Rounds) != 3 {
		t.Fatalf("rounds %d", len(res.History.Rounds))
	}
	// FedAvg of 1 (n=10) and 2 (n=30) = 1.75.
	want := 1.75
	if got := res.FinalWeights["layer.w"].At(0, 0); got != want {
		t.Fatalf("server final weight %v, want %v", got, want)
	}
	// Every client received the identical final model.
	for name, final := range finals {
		if got := final["layer.w"].At(0, 0); got != want {
			t.Fatalf("client %s final weight %v, want %v", name, got, want)
		}
	}
	for _, exec := range execs {
		if exec.calls != 3 {
			t.Fatalf("executor ran %d rounds, want 3", exec.calls)
		}
	}
}

func TestServerRejectsBadToken(t *testing.T) {
	proj := testProject(t, "c1")
	srv, err := NewServer(ServerConfig{
		Addr:            "127.0.0.1:0",
		ExpectedClients: 1,
		Rounds:          1,
		RegisterTimeout: 2 * time.Second,
		VerifyToken:     proj.VerifyToken,
		Logf:            quietLogf,
	}, proj.ServerKit)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	kit := *proj.ClientKits["c1"]
	kit.Token = "forged-token"
	cl, err := NewClient(ClientConfig{ServerAddr: srv.Addr(), Logf: quietLogf}, &kit, &fakeExecutor{name: "c1", samples: 1})
	if err != nil {
		t.Fatal(err)
	}

	clientDone := make(chan error, 1)
	go func() {
		_, err := cl.Run()
		clientDone <- err
	}()

	// Registration never completes, so the server times out.
	if _, err := srv.Run(initialWeights()); err == nil || !strings.Contains(err.Error(), "registration timed out") {
		t.Fatalf("want registration timeout, got %v", err)
	}
	if cerr := <-clientDone; cerr == nil || !strings.Contains(cerr.Error(), "rejected") {
		t.Fatalf("client should see rejection, got %v", cerr)
	}
}

func TestServerRejectsUnprovisionedTLSPeer(t *testing.T) {
	proj := testProject(t, "c1")
	// A second, unrelated project's client has a cert from a different CA;
	// the mutual-TLS handshake must fail before any protocol exchange.
	other := testProject(t, "c1")

	srv, err := NewServer(ServerConfig{
		Addr:            "127.0.0.1:0",
		ExpectedClients: 1,
		Rounds:          1,
		RegisterTimeout: 1500 * time.Millisecond,
		VerifyToken:     proj.VerifyToken,
		Logf:            quietLogf,
	}, proj.ServerKit)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := NewClient(ClientConfig{
		ServerAddr: srv.Addr(), DialTimeout: time.Second, Logf: quietLogf,
	}, other.ClientKits["c1"], &fakeExecutor{name: "c1", samples: 1})
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan error, 1)
	go func() {
		_, err := cl.Run()
		clientDone <- err
	}()
	if _, err := srv.Run(initialWeights()); err == nil {
		t.Fatal("server should time out waiting for a valid client")
	}
	if cerr := <-clientDone; cerr == nil {
		t.Fatal("cross-CA client should fail")
	}
}

// TestClientRegisterAckBoundedByDialTimeout: a listener that accepts the
// link but never answers registration (a server busy or gone) must fail
// the client within DialTimeout, not leave it waiting for the ack forever.
func TestClientRegisterAckBoundedByDialTimeout(t *testing.T) {
	proj := testProject(t, "c1")
	mem := transport.NewMemNetwork()
	defer mem.Close()
	const dialTimeout = 200 * time.Millisecond
	cl, err := NewClient(ClientConfig{
		DialTimeout: dialTimeout, Logf: quietLogf,
		Dialer: func() (transport.MessageConn, error) {
			return mem.Dial("c1", transport.LinkProfile{}, transport.LinkProfile{})
		},
	}, proj.ClientKits["c1"], &fakeExecutor{name: "c1", samples: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	clientDone := make(chan error, 1)
	go func() {
		_, err := cl.Run()
		clientDone <- err
	}()
	select {
	case err := <-clientDone:
		if err == nil || !strings.Contains(err.Error(), "register ack") {
			t.Fatalf("want register-ack error, got %v", err)
		}
		if took := time.Since(start); took > dialTimeout+2*time.Second {
			t.Fatalf("client gave up after %v, want about DialTimeout %v", took, dialTimeout)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client still waiting for a register ack that never comes")
	}
}

// TestServerPropagatesKilledClientIntoResult kills a client mid-round (its
// TCP connection dies after it receives the round-0 task) and checks the
// server records the failure in the Result instead of silently treating
// the client as absent, then finishes the remaining rounds without it.
func TestServerPropagatesKilledClientIntoResult(t *testing.T) {
	proj := testProject(t, "c1", "c2")
	srv, err := NewServer(ServerConfig{
		Addr:            "127.0.0.1:0",
		ExpectedClients: 2,
		Rounds:          2,
		RegisterTimeout: 10 * time.Second,
		VerifyToken:     proj.VerifyToken,
		Logf:            quietLogf,
	}, proj.ServerKit)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Healthy client.
	cl, err := NewClient(ClientConfig{ServerAddr: srv.Addr(), Logf: quietLogf},
		proj.ClientKits["c1"], &fakeExecutor{name: "c1", samples: 10, value: 1})
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan error, 1)
	go func() {
		_, err := cl.Run()
		clientDone <- err
	}()

	// Doomed client: speaks the protocol by hand, then dies mid-round.
	killed := make(chan error, 1)
	go func() {
		killed <- func() error {
			tlsCfg, err := proj.ClientKits["c2"].ClientTLS()
			if err != nil {
				return err
			}
			conn, err := transport.Dial(srv.Addr(), tlsCfg, 5*time.Second)
			if err != nil {
				return err
			}
			kit := proj.ClientKits["c2"]
			if err := conn.Write(&transport.Message{
				Type: transport.MsgRegister, Sender: kit.Name, Token: kit.Token,
			}); err != nil {
				return err
			}
			if _, err := conn.Read(); err != nil { // ack
				return err
			}
			if _, err := conn.Read(); err != nil { // round-0 task
				return err
			}
			return conn.Close() // die mid-round, update never sent
		}()
	}()

	res, err := srv.Run(initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	if cerr := <-clientDone; cerr != nil {
		t.Fatalf("healthy client: %v", cerr)
	}
	if kerr := <-killed; kerr != nil {
		t.Fatalf("killed client setup: %v", kerr)
	}

	if len(res.History.Rounds) != 2 {
		t.Fatalf("server completed %d rounds, want 2", len(res.History.Rounds))
	}
	r0 := res.History.Rounds[0]
	if len(r0.Participants) != 1 || r0.Participants[0] != "c1" {
		t.Fatalf("round 0 participants %v, want [c1]", r0.Participants)
	}
	found := false
	for _, f := range r0.Failures {
		if strings.HasPrefix(f, "c2:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("killed client missing from round-0 failures: %v", r0.Failures)
	}
	r1 := res.History.Rounds[1]
	if len(r1.Sampled) != 1 || r1.Sampled[0] != "c1" {
		t.Fatalf("round 1 should task only the survivor, got %v", r1.Sampled)
	}
	// The final-model broadcast cannot reach the dead client either; that
	// lands in the Result too instead of vanishing into a log line.
	found = false
	for _, f := range res.History.FinishFailures {
		if strings.HasPrefix(f, "c2:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("dead client missing from finish failures: %v", res.History.FinishFailures)
	}
}

// runAsyncFederation drives the acceptance federation: 4 networked
// clients, one delayed beyond any useful round budget, MinUpdates=3, and
// the given uplink codec on every client. Returns the server result.
func runAsyncFederation(t *testing.T, codec string) *Result {
	t.Helper()
	names := []string{"c1", "c2", "c3", "c4"}
	proj := testProject(t, names...)
	srv, err := NewServer(ServerConfig{
		Addr:            "127.0.0.1:0",
		ExpectedClients: 4,
		Rounds:          3,
		RegisterTimeout: 10 * time.Second,
		MinUpdates:      3,
		RoundDeadline:   20 * time.Second,
		VerifyToken:     proj.VerifyToken,
		Logf:            quietLogf,
	}, proj.ServerKit)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	clientErrs := make(chan error, len(names))
	for i, name := range names {
		exec := &fakeExecutor{name: name, samples: 10, value: float64(i + 1)}
		if name == "c4" {
			exec.delay = 1200 * time.Millisecond // straggler: last every round
		}
		cl, err := NewClient(ClientConfig{
			ServerAddr: srv.Addr(), Codec: codec, Logf: quietLogf,
		}, proj.ClientKits[name], exec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cl.Run()
			clientErrs <- err
		}()
	}

	start := time.Now()
	res, err := srv.Run(initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("federation blocked on the straggler: %v", elapsed)
	}
	wg.Wait()
	close(clientErrs)
	for cerr := range clientErrs {
		if cerr != nil {
			t.Fatalf("client: %v", cerr)
		}
	}
	return res
}

// TestNetworkedAsyncFederationCodecCutsBytes pins the acceptance criteria:
// a 4-client federation with one straggler completes all rounds without
// blocking, reports per-round participation, the f32-quantized uplink cuts
// measured bytes-on-wire per round by >= 40% against raw, and the int8
// uplink undercuts f32.
func TestNetworkedAsyncFederationCodecCutsBytes(t *testing.T) {
	byCodec := map[string]int64{}
	for _, codec := range []string{"raw", "f32", "int8"} {
		res := runAsyncFederation(t, codec)
		if len(res.History.Rounds) != 3 {
			t.Fatalf("[%s] completed %d rounds, want 3", codec, len(res.History.Rounds))
		}
		var total int64
		for i, rec := range res.History.Rounds {
			if len(rec.Participants) != 3 {
				t.Fatalf("[%s] round %d participants %v, want 3 (straggler dropped)",
					codec, i, rec.Participants)
			}
			for _, p := range rec.Participants {
				if p == "c4" {
					t.Fatalf("[%s] round %d straggler aggregated", codec, i)
				}
			}
			if rec.BytesUp <= 0 || rec.BytesDown <= 0 {
				t.Fatalf("[%s] round %d bytes unrecorded: up=%d down=%d",
					codec, i, rec.BytesUp, rec.BytesDown)
			}
			total += rec.BytesUp
		}
		byCodec[codec] = total
	}
	if f32, raw := byCodec["f32"], byCodec["raw"]; float64(f32) > 0.6*float64(raw) {
		t.Fatalf("f32 uplink %d bytes, want >= 40%% below raw %d", f32, raw)
	}
	// The test model is tiny, so fixed per-parameter headers blunt the
	// ratio on the wire; int8 must still beat f32. The >= 60% payload
	// reduction bar is pinned on realistic shapes in codec_test.go.
	if i8, f32 := byCodec["int8"], byCodec["f32"]; i8 >= f32 {
		t.Fatalf("int8 uplink %d bytes, want below f32 %d", i8, f32)
	}
}

// TestServerRecordsFramedWireTotals: the Result's framed wire totals cover
// every connection a client used, the ones a re-attach replaced included.
func TestServerRecordsFramedWireTotals(t *testing.T) {
	res := runAsyncFederation(t, "f32")
	var payloadUp int64
	for _, rec := range res.History.Rounds {
		payloadUp += rec.BytesUp
	}
	// Framed totals include length headers and envelopes on top of the
	// payloads (and the straggler's late uploads), so they must exceed
	// the payload sum.
	if res.History.WireBytesRead <= payloadUp {
		t.Fatalf("framed wire bytes read %d should exceed payload bytes %d",
			res.History.WireBytesRead, payloadUp)
	}
	if res.History.WireBytesWritten <= 0 {
		t.Fatal("framed wire bytes written unrecorded")
	}

	// Re-attach: flaky's round-0 task arrives corrupted, so it redials under
	// its session and the server swaps its connection mid-run. The
	// superseded connection's bytes must stay in the totals.
	network := transport.NewMemNetwork()
	defer network.Close()
	srv, err := NewServer(ServerConfig{
		ExpectedClients: 2, Rounds: 2, MinClients: 2, RegisterTimeout: 10 * time.Second,
		VerifyToken: tokenFor, Logf: quietLogf, Listener: network,
	}, &provision.StartupKit{Role: provision.RoleServer, Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var mu sync.Mutex
	var conns []transport.MessageConn // every client-side connection
	dials := map[string]int{}
	var wg sync.WaitGroup
	for _, name := range []string{"flaky", "steady"} {
		cl, err := NewClient(ClientConfig{
			Logf: quietLogf, Reconnect: true, MaxReconnects: 10, Backoff: fastBackoff(),
			Dialer: func() (transport.MessageConn, error) {
				mu.Lock()
				defer mu.Unlock()
				var down transport.LinkProfile
				if name == "flaky" && dials[name] == 0 {
					// Down message 0 is the register ack, 1 the round-0 task.
					down.CorruptMsgs = []int{1}
				}
				dials[name]++
				conn, err := network.Dial(name, transport.LinkProfile{}, down)
				if err == nil {
					conns = append(conns, conn)
				}
				return conn, err
			},
		}, &provision.StartupKit{Role: provision.RoleClient, Name: name, Token: "tok-" + name},
			&fakeExecutor{name: name, samples: 10, value: 1})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Run(); err != nil {
				t.Errorf("client %s: %v", name, err)
			}
		}()
	}
	res, err = srv.Run(initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if dials["flaky"] < 2 {
		t.Fatalf("flaky dialled %d times, want a redial after the corrupt task", dials["flaky"])
	}
	var clientRead, clientWritten int64
	for _, c := range conns {
		clientRead += c.BytesRead()
		clientWritten += c.BytesWritten()
	}
	if res.History.WireBytesRead < clientWritten || res.History.WireBytesWritten < clientRead {
		t.Fatalf("server wire totals read %d / written %d, below the clients' written %d / read %d",
			res.History.WireBytesRead, res.History.WireBytesWritten, clientWritten, clientRead)
	}
}

// TestServerRejectsTopKUplinkByDefault: top-k sparsifies full weight maps
// (not deltas), so unless the operator opts in the server must negotiate
// the client back to raw — the exact FedAvg result proves no parameter was
// zeroed on the uplink.
func TestServerRejectsTopKUplinkByDefault(t *testing.T) {
	proj := testProject(t, "c1", "c2")
	srv, err := NewServer(ServerConfig{
		Addr:            "127.0.0.1:0",
		ExpectedClients: 2,
		Rounds:          1,
		RegisterTimeout: 10 * time.Second,
		VerifyToken:     proj.VerifyToken,
		Logf:            quietLogf,
	}, proj.ServerKit)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for name, exec := range map[string]*fakeExecutor{
		"c1": {name: "c1", samples: 10, value: 1},
		"c2": {name: "c2", samples: 30, value: 2},
	} {
		cl, err := NewClient(ClientConfig{
			ServerAddr: srv.Addr(), Codec: "topk:0.1", Logf: quietLogf,
		}, proj.ClientKits[name], exec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if _, err := cl.Run(); err != nil {
				t.Errorf("client %s: %v", name, err)
			}
		}(name)
	}
	res, err := srv.Run(initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// FedAvg of 1 (n=10) and 2 (n=30) = 1.75, exactly — a top-k uplink
	// would have zeroed 90% of every parameter before averaging.
	if got := res.FinalWeights["layer.w"].At(0, 0); got != 1.75 {
		t.Fatalf("final weight %v, want exact 1.75 (raw fallback)", got)
	}
}

// TestNewServerRefusesTopKDownlink: a top-k task payload would zero most of
// the model every client starts from, so NewServer refuses a top-k Codec
// by name, whatever its fraction, and still accepts the dense codecs.
func TestNewServerRefusesTopKDownlink(t *testing.T) {
	proj := testProject(t, "c1")
	for _, codec := range []string{"topk", "topk:0.5", "topk:1"} {
		network := transport.NewMemNetwork()
		_, err := NewServer(ServerConfig{
			ExpectedClients: 1, VerifyToken: proj.VerifyToken, Codec: codec, Logf: quietLogf,
			Listener: network,
		}, proj.ServerKit)
		network.Close()
		if err == nil || !strings.Contains(err.Error(), "Codec") {
			t.Errorf("Codec %q: NewServer err = %v, want a refusal naming Codec", codec, err)
		}
	}
	for _, codec := range []string{"", "raw", "f32", "int8"} {
		network := transport.NewMemNetwork()
		srv, err := NewServer(ServerConfig{
			ExpectedClients: 1, VerifyToken: proj.VerifyToken, Codec: codec, Logf: quietLogf,
			Listener: network,
		}, proj.ServerKit)
		if err != nil {
			t.Errorf("Codec %q: NewServer: %v", codec, err)
		} else {
			srv.Close()
		}
		network.Close()
	}
}

// TestServerTrustsTaskRecordOverWireRound: a tasked client replying with a
// bogus wire round number must still release its pending slot and count as
// an in-round participant; with no RoundDeadline the old msg.Round-based
// accounting would block the round forever.
func TestServerTrustsTaskRecordOverWireRound(t *testing.T) {
	proj := testProject(t, "c1", "c2")
	srv, err := NewServer(ServerConfig{
		Addr:            "127.0.0.1:0",
		ExpectedClients: 2,
		Rounds:          1,
		RegisterTimeout: 10 * time.Second,
		VerifyToken:     proj.VerifyToken,
		Logf:            quietLogf,
	}, proj.ServerKit)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := NewClient(ClientConfig{ServerAddr: srv.Addr(), Logf: quietLogf},
		proj.ClientKits["c1"], &fakeExecutor{name: "c1", samples: 10, value: 1})
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan error, 1)
	go func() {
		_, err := cl.Run()
		clientDone <- err
	}()

	// Hand-rolled client: valid update payload, garbage round number.
	rogueDone := make(chan error, 1)
	go func() {
		rogueDone <- func() error {
			kit := proj.ClientKits["c2"]
			tlsCfg, err := kit.ClientTLS()
			if err != nil {
				return err
			}
			conn, err := transport.Dial(srv.Addr(), tlsCfg, 5*time.Second)
			if err != nil {
				return err
			}
			defer conn.Close()
			if err := conn.Write(&transport.Message{
				Type: transport.MsgRegister, Sender: kit.Name, Token: kit.Token,
			}); err != nil {
				return err
			}
			if _, err := conn.Read(); err != nil { // ack
				return err
			}
			task, err := conn.Read() // round-0 task
			if err != nil {
				return err
			}
			weights, err := DecodeWeights(task.Payload)
			if err != nil {
				return err
			}
			blob, err := EncodeWeights(weights)
			if err != nil {
				return err
			}
			if err := conn.Write(&transport.Message{
				Type: transport.MsgUpdate, Sender: kit.Name, Round: 97, // bogus
				Payload: blob, NumSamples: 10,
			}); err != nil {
				return err
			}
			_, err = conn.Read() // finish
			return err
		}()
	}()

	done := make(chan struct{})
	var res *Result
	var runErr error
	go func() {
		res, runErr = srv.Run(initialWeights())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("round blocked on a tasked client's bogus wire round")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if cerr := <-clientDone; cerr != nil {
		t.Fatalf("healthy client: %v", cerr)
	}
	if rerr := <-rogueDone; rerr != nil {
		t.Fatalf("rogue client: %v", rerr)
	}
	if got := len(res.History.Rounds[0].Participants); got != 2 {
		t.Fatalf("participants %v, want both clients counted in-round",
			res.History.Rounds[0].Participants)
	}
}

// TestServerRejectsTopKPayloadOnWire: the top-k gate must hold at
// ingestion, not just negotiation — a client that registered raw but sends
// a top-k payload anyway is recorded as a failure, never aggregated.
func TestServerRejectsTopKPayloadOnWire(t *testing.T) {
	proj := testProject(t, "c1", "c2")
	srv, err := NewServer(ServerConfig{
		Addr:            "127.0.0.1:0",
		ExpectedClients: 2,
		Rounds:          1,
		RegisterTimeout: 10 * time.Second,
		VerifyToken:     proj.VerifyToken,
		Logf:            quietLogf,
	}, proj.ServerKit)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := NewClient(ClientConfig{ServerAddr: srv.Addr(), Logf: quietLogf},
		proj.ClientKits["c1"], &fakeExecutor{name: "c1", samples: 10, value: 1})
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan error, 1)
	go func() {
		_, err := cl.Run()
		clientDone <- err
	}()

	// Rogue client: negotiates raw (no codec meta) but uploads top-k.
	rogueDone := make(chan error, 1)
	go func() {
		rogueDone <- func() error {
			kit := proj.ClientKits["c2"]
			tlsCfg, err := kit.ClientTLS()
			if err != nil {
				return err
			}
			conn, err := transport.Dial(srv.Addr(), tlsCfg, 5*time.Second)
			if err != nil {
				return err
			}
			defer conn.Close()
			if err := conn.Write(&transport.Message{
				Type: transport.MsgRegister, Sender: kit.Name, Token: kit.Token,
			}); err != nil {
				return err
			}
			if _, err := conn.Read(); err != nil { // ack
				return err
			}
			task, err := conn.Read() // round-0 task
			if err != nil {
				return err
			}
			weights, err := DecodeWeights(task.Payload)
			if err != nil {
				return err
			}
			blob, err := TopKCodec{Fraction: 0.1}.Encode(weights)
			if err != nil {
				return err
			}
			if err := conn.Write(&transport.Message{
				Type: transport.MsgUpdate, Sender: kit.Name, Round: 0,
				Payload: blob, NumSamples: 10,
			}); err != nil {
				return err
			}
			_, err = conn.Read() // finish
			return err
		}()
	}()

	res, err := srv.Run(initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	if cerr := <-clientDone; cerr != nil {
		t.Fatalf("healthy client: %v", cerr)
	}
	if rerr := <-rogueDone; rerr != nil {
		t.Fatalf("rogue client: %v", rerr)
	}
	r0 := res.History.Rounds[0]
	if len(r0.Participants) != 1 || r0.Participants[0] != "c1" {
		t.Fatalf("participants %v, want only the honest client", r0.Participants)
	}
	found := false
	for _, f := range r0.Failures {
		if strings.HasPrefix(f, "c2:") && strings.Contains(f, "top-k") {
			found = true
		}
	}
	if !found {
		t.Fatalf("rejected top-k payload missing from failures: %v", r0.Failures)
	}
}

// TestServerQuorumNotMet: with MinClients set, a round that gathers fewer
// successful updates fails the run instead of publishing one site's raw
// weights as the global model.
func TestServerQuorumNotMet(t *testing.T) {
	proj := testProject(t, "c1", "c2")
	srv, err := NewServer(ServerConfig{
		Addr:            "127.0.0.1:0",
		ExpectedClients: 2,
		Rounds:          1,
		MinClients:      2,
		RegisterTimeout: 10 * time.Second,
		VerifyToken:     proj.VerifyToken,
		Logf:            quietLogf,
	}, proj.ServerKit)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := NewClient(ClientConfig{ServerAddr: srv.Addr(), Logf: quietLogf},
		proj.ClientKits["c1"], &fakeExecutor{name: "c1", samples: 10, value: 1})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = cl.Run() }() // dies with the server; error irrelevant

	// Doomed client: registers, receives the task, dies mid-round.
	killed := make(chan error, 1)
	go func() {
		killed <- func() error {
			kit := proj.ClientKits["c2"]
			tlsCfg, err := kit.ClientTLS()
			if err != nil {
				return err
			}
			conn, err := transport.Dial(srv.Addr(), tlsCfg, 5*time.Second)
			if err != nil {
				return err
			}
			if err := conn.Write(&transport.Message{
				Type: transport.MsgRegister, Sender: kit.Name, Token: kit.Token,
			}); err != nil {
				return err
			}
			if _, err := conn.Read(); err != nil { // ack
				return err
			}
			if _, err := conn.Read(); err != nil { // round-0 task
				return err
			}
			return conn.Close()
		}()
	}()

	if _, err := srv.Run(initialWeights()); err == nil ||
		!strings.Contains(err.Error(), "quorum") {
		t.Fatalf("want quorum error with MinClients=2, got %v", err)
	}
	if kerr := <-killed; kerr != nil {
		t.Fatalf("killed client setup: %v", kerr)
	}
}

func TestNewClientValidation(t *testing.T) {
	proj := testProject(t, "c1")
	if _, err := NewClient(ClientConfig{}, proj.ServerKit, &fakeExecutor{name: "x"}); err == nil {
		t.Fatal("want error for server kit used as client")
	}
	if _, err := NewClient(ClientConfig{}, proj.ClientKits["c1"], nil); err == nil {
		t.Fatal("want error for nil executor")
	}
}

func TestNewServerValidation(t *testing.T) {
	proj := testProject(t, "c1")
	if _, err := NewServer(ServerConfig{ExpectedClients: 0, VerifyToken: proj.VerifyToken}, proj.ServerKit); err == nil {
		t.Fatal("want error for zero clients")
	}
	if _, err := NewServer(ServerConfig{ExpectedClients: 1, Addr: "127.0.0.1:0"}, proj.ServerKit); err == nil {
		t.Fatal("want error for missing VerifyToken")
	}
}

// TestServerRejectsGarbledUpdateHeader: a tasked client whose update
// carries an unparseable or non-finite train_loss is recorded as that
// client's failure before anything is aggregated or logged; the round
// finalizes over the healthy client.
func TestServerRejectsGarbledUpdateHeader(t *testing.T) {
	for _, loss := range []string{"oops", "NaN", "1e999"} {
		t.Run(loss, func(t *testing.T) {
			proj := testProject(t, "c1", "c2")
			network := transport.NewMemNetwork()
			defer network.Close()
			srv, err := NewServer(ServerConfig{
				ExpectedClients: 2,
				Rounds:          1,
				MinClients:      1,
				RegisterTimeout: 10 * time.Second,
				VerifyToken:     proj.VerifyToken,
				Logf:            quietLogf,
				Listener:        network,
			}, proj.ServerKit)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			cl, err := NewClient(ClientConfig{
				Logf: quietLogf,
				Dialer: func() (transport.MessageConn, error) {
					return network.Dial("c1", transport.LinkProfile{}, transport.LinkProfile{})
				},
			}, proj.ClientKits["c1"], &fakeExecutor{name: "c1", samples: 10, value: 1})
			if err != nil {
				t.Fatal(err)
			}
			clientDone := make(chan error, 1)
			go func() {
				_, err := cl.Run()
				clientDone <- err
			}()
			rogueDone := make(chan error, 1)
			go func() {
				rogueDone <- func() error {
					kit := proj.ClientKits["c2"]
					conn, err := network.Dial("c2", transport.LinkProfile{}, transport.LinkProfile{})
					if err != nil {
						return err
					}
					defer conn.Close()
					if err := conn.Write(&transport.Message{
						Type: transport.MsgRegister, Sender: kit.Name, Token: kit.Token,
					}); err != nil {
						return err
					}
					if _, err := conn.Read(); err != nil { // ack
						return err
					}
					task, err := conn.Read() // round-0 task
					if err != nil {
						return err
					}
					if err := conn.Write(&transport.Message{
						Type: transport.MsgUpdate, Sender: kit.Name, Round: task.Round,
						Payload: task.Payload, NumSamples: 30,
						Meta: map[string]string{"train_loss": loss},
					}); err != nil {
						return err
					}
					_, err = conn.Read() // finish
					return err
				}()
			}()

			res, err := srv.Run(initialWeights())
			if err != nil {
				t.Fatalf("a garbled update header aborted the run: %v", err)
			}
			if cerr := <-clientDone; cerr != nil {
				t.Fatalf("healthy client: %v", cerr)
			}
			if rerr := <-rogueDone; rerr != nil {
				t.Fatalf("rogue client: %v", rerr)
			}
			rec := res.History.Rounds[0]
			if len(rec.Participants) != 1 || rec.Participants[0] != "c1" {
				t.Fatalf("participants %v, want [c1]", rec.Participants)
			}
			if len(rec.Failures) != 1 || !strings.HasPrefix(rec.Failures[0], "c2: ") {
				t.Fatalf("failures %v, want one naming c2", rec.Failures)
			}
			if got := res.FinalWeights["layer.w"].At(0, 0); got != 1 {
				t.Fatalf("final weight %v, want c1's 1 alone", got)
			}
		})
	}
}

// TestServerNamesNonFiniteInt8Client: a client whose training diverged to
// NaN reports that instead of encoding it. Under int8 a NaN would travel
// as code 0, and the server would average a zero model it cannot tell
// from a real one.
func TestServerNamesNonFiniteInt8Client(t *testing.T) {
	network := transport.NewMemNetwork()
	defer network.Close()
	srv, err := NewServer(ServerConfig{
		ExpectedClients: 3, Rounds: 1, MinClients: 2, RegisterTimeout: 10 * time.Second,
		VerifyToken: tokenFor, Logf: quietLogf, Listener: network,
	}, &provision.StartupKit{Role: provision.RoleServer, Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for _, exec := range []*fakeExecutor{
		{name: "a", samples: 1, value: 1},
		{name: "b", samples: 1, value: math.NaN()},
		{name: "c", samples: 1, value: 3},
	} {
		cl, err := NewClient(ClientConfig{Codec: "int8", Logf: quietLogf, Dialer: memDialer(network, exec.name)},
			&provision.StartupKit{Role: provision.RoleClient, Name: exec.name, Token: "tok-" + exec.name}, exec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = cl.Run()
		}()
	}
	res, err := srv.Run(initialWeights())
	srv.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rec := res.History.Rounds[0]
	if len(rec.Failures) != 1 || !strings.HasPrefix(rec.Failures[0], "b: ") ||
		!strings.Contains(rec.Failures[0], `param "layer.b" has a non-finite value`) {
		t.Errorf("failures %q, want b's non-finite value in layer.b, its first param by name", rec.Failures)
	}
	for name, m := range res.FinalWeights {
		for _, v := range m.Data() {
			if math.Abs(v-2) > 0.05 {
				t.Fatalf("%s holds %v, want about 2, the mean of a and c", name, v)
			}
		}
	}
}
