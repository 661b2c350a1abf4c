package fl

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clinfl/internal/fl/durable"
	"clinfl/internal/provision"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

// The networked aggregate is pinned by digest: three clients of different
// sample counts send every uplink codec over a MemNetwork, and the final
// model's raw encoding must hash to the value recorded when the server
// still decoded every update into a map before averaging. The weights carry
// the values a codec or a fold is most likely to get wrong: −0, float64 and
// float32 subnormals, an all-zero row, a row at float32 max, and shapes
// whose element counts are not multiples of four.

// pinWeights returns a client's update for a round: a function of the
// global it trained from, its index and the round, so a re-trained round
// reproduces its update exactly.
func pinWeights(global map[string]*tensor.Matrix, client, round int) map[string]*tensor.Matrix {
	out := make(map[string]*tensor.Matrix, len(global))
	for name, g := range global {
		w := tensor.New(g.Rows(), g.Cols())
		d, gd := w.Data(), g.Data()
		for i := range d {
			d[i] = 0.5*gd[i] + math.Sin(float64(1+client)*0.9+float64(i)*0.37+float64(round))*float64(1+i%5)
		}
		switch name {
		case "a.w": // 3x5: row 1 all zero, row 2 at float32 max
			for c := 0; c < 5; c++ {
				w.Set(1, c, 0)
				w.Set(2, c, math.MaxFloat32*float64(1-2*(c%2)))
			}
			w.Set(0, 0, math.Copysign(0, -1))
			w.Set(0, 1, 5e-324)  // float64 subnormal
			w.Set(0, 2, 1e-40)   // float32 subnormal
			w.Set(0, 3, -3e-310) // float64 subnormal, negative
		case "b":
			d[0] = math.Copysign(0, -1)
		}
		out[name] = w
	}
	return out
}

func pinInitial() map[string]*tensor.Matrix {
	return map[string]*tensor.Matrix{
		"a.w": tensor.New(3, 5),
		"b":   tensor.New(1, 7),
		"c.k": tensor.New(2, 3),
	}
}

// pinExecutor trains pinWeights; delayRound, when set, holds the reply
// of that round back so a crash can fire while it is outstanding.
type pinExecutor struct {
	name       string
	index      int
	samples    int
	delayRound int
	delay      time.Duration
	calls      atomic.Int32
}

func (e *pinExecutor) Name() string { return e.name }

func (e *pinExecutor) ExecuteRound(round int, global map[string]*tensor.Matrix) (*ClientUpdate, error) {
	e.calls.Add(1)
	if e.delay > 0 && round == e.delayRound {
		time.Sleep(e.delay)
	}
	return &ClientUpdate{
		ClientName: e.name, Round: round, Weights: pinWeights(global, e.index, round),
		NumSamples: e.samples, TrainLoss: 0.25 * float64(e.index+1),
	}, nil
}

func weightsDigest(t *testing.T, w map[string]*tensor.Matrix) string {
	t.Helper()
	blob, err := EncodeWeights(w)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

func pinExecutors() []*pinExecutor {
	return []*pinExecutor{
		{name: "site-a", index: 0, samples: 3},
		{name: "site-b", index: 1, samples: 7},
		{name: "site-c", index: 2, samples: 11},
	}
}

// runPinnedFederation runs three rounds of a three-client MemNetwork
// federation whose clients all upload with codec.
func runPinnedFederation(t *testing.T, codec string, agg Aggregator) *Result {
	t.Helper()
	network := transport.NewMemNetwork()
	defer network.Close()
	srv, err := NewServer(ServerConfig{
		ExpectedClients: 3, Rounds: 3, MinClients: 3, RegisterTimeout: 10 * time.Second,
		AllowTopKUplink: true, Aggregator: agg,
		VerifyToken: tokenFor, Logf: quietLogf, Listener: network,
	}, &provision.StartupKit{Role: provision.RoleServer, Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for _, exec := range pinExecutors() {
		cl, err := NewClient(ClientConfig{Codec: codec, Logf: quietLogf, Dialer: memDialer(network, exec.name)},
			&provision.StartupKit{Role: provision.RoleClient, Name: exec.name, Token: "tok-" + exec.name}, exec)
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
	res, err := srv.Run(pinInitial())
	srv.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.History.Rounds {
		if len(rec.Failures) > 0 || len(rec.Participants) != 3 {
			t.Fatalf("%s round %d: participants %v, failures %v", codec, rec.Round, rec.Participants, rec.Failures)
		}
	}
	return res
}

func TestNetworkedAggregatePinned(t *testing.T) {
	for _, tc := range []struct {
		codec string
		agg   Aggregator
		want  string
	}{
		{"raw", FedAvg{}, "cc6d142ec4bb21d4f79f65e6d3e37c38853a828699b20e14890d4f48fde14f5c"},
		{"f32", FedAvg{}, "e243718f352ea2fe928b50584b0317008da34d165ff210c0d8b35eb7b1c93b50"},
		{"int8", FedAvg{}, "715f5c434b7b16251168a4cfaad0235b5e60fc5a9701b3a4177d62c731ef6d79"},
		{"topk:0.5", FedAvg{}, "43441dede6211f2f89ab6b42dd3b60502fdaf4db8203794dda084a599cd78a13"},
		{"raw", MeanAggregator{}, "b7c5cf20b88e902523d937f617c542ab13af91beb8a86d47a25f25d80c9d676a"},
		{"f32", MeanAggregator{}, "a86f0adfe28d7764af44d110f1b5e6debdbfd302c19905f2ee2995241fccea42"},
		{"int8", MeanAggregator{}, "61f09cdccbd1641a00664c38c0c61a11804c26afc5f1b9e7441376ab3c611c5e"},
		{"topk:0.5", MeanAggregator{}, "840f0ec61fef34a98e6ebea2718d45b62761a7aeb6f57dda7761bdc06a4254fb"},
	} {
		res := runPinnedFederation(t, tc.codec, tc.agg)
		if got := weightsDigest(t, res.FinalWeights); got != tc.want {
			t.Errorf("%s/%s final weights sha256 %s, want %s", tc.codec, tc.agg.Name(), got, tc.want)
		}
	}
}

// TestNetworkedAggregatePinnedAcrossResume kills an int8 WAL server the
// moment round 1's first update is logged, with the other two still
// training, and resumes it from the log: the resumed round folds the logged
// payload with the re-trained ones to the same pinned model as an
// uninterrupted run.
func TestNetworkedAggregatePinnedAcrossResume(t *testing.T) {
	const want = "715f5c434b7b16251168a4cfaad0235b5e60fc5a9701b3a4177d62c731ef6d79" // int8/fedavg above
	walPath := filepath.Join(t.TempDir(), "run.wal")
	net1 := transport.NewMemNetwork()
	var network atomic.Pointer[transport.MemNetwork]
	network.Store(net1)
	mkServer := func(wal *durable.WAL, ln transport.MessageListener) *Server {
		srv, err := NewServer(ServerConfig{
			ExpectedClients: 3, Rounds: 3, MinClients: 3, RegisterTimeout: 20 * time.Second,
			VerifyToken: tokenFor, Logf: quietLogf, Listener: ln, WAL: wal,
		}, &provision.StartupKit{Role: provision.RoleServer, Name: "server"})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	execs := pinExecutors()
	for _, e := range execs[1:] {
		e.delayRound, e.delay = 1, 400*time.Millisecond
	}
	var wg sync.WaitGroup
	for _, exec := range execs {
		cl, err := NewClient(ClientConfig{
			Codec: "int8", Logf: quietLogf, Reconnect: true, MaxReconnects: 50, Backoff: fastBackoff(),
			Dialer: func() (transport.MessageConn, error) {
				return network.Load().Dial(exec.name, transport.LinkProfile{}, transport.LinkProfile{})
			},
		}, &provision.StartupKit{Role: provision.RoleClient, Name: exec.name, Token: "tok-" + exec.name}, exec)
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

	var srv1 *Server
	var crash sync.Once
	wal1, err := durable.Open(walPath, durable.Options{OnAppend: func(_ int64, rec *durable.Record) {
		if rec.Type == durable.RecUpdatePayload && rec.Round == 1 {
			crash.Do(func() { _ = srv1.Close() })
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv1 = mkServer(wal1, net1)
	if _, err := srv1.Run(pinInitial()); err == nil {
		t.Fatal("server 1 survived its scripted crash")
	}
	if err := wal1.Close(); err != nil {
		t.Fatal(err)
	}

	net2 := transport.NewMemNetwork()
	defer net2.Close()
	network.Store(net2)
	wal2, err := durable.Open(walPath, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if st := wal2.Recovered(); st.Open == nil || st.Open.Round != 1 || len(st.Open.Updates) < 1 {
		t.Fatalf("crash left no open round 1 with a logged update: %+v", st.Open)
	}
	srv2 := mkServer(wal2, net2)
	defer srv2.Close()
	res, err := srv2.Run(pinInitial())
	srv2.Close()
	wg.Wait()
	if err != nil {
		t.Fatalf("server 2 run: %v", err)
	}
	if got := execs[0].calls.Load(); got != 3 {
		t.Errorf("site-a trained %d rounds, want 3 (its logged update must be reseeded)", got)
	}
	if got := weightsDigest(t, res.FinalWeights); got != want {
		t.Errorf("resumed int8 final weights sha256 %s, want %s", got, want)
	}
}

// TestTLSFederationPinned runs the pinned federation over real mutual TLS:
// three provisioned sites on a loopback listener, int8 on the downlink and
// the uplink, three FedAvg rounds. Every byte of every task and update
// crosses a TLS socket through transport.Conn, so a framing change that
// alters a payload moves this digest.
func TestTLSFederationPinned(t *testing.T) {
	const want = "e6cba4109970e5529aaad85305c9e9451d697e681bc1e749c32f90e476ac61fc"
	execs := pinExecutors()
	proj := testProject(t, execs[0].name, execs[1].name, execs[2].name)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", ExpectedClients: 3, Rounds: 3, MinClients: 3,
		RegisterTimeout: 20 * time.Second, Codec: "int8",
		VerifyToken: proj.VerifyToken, Logf: quietLogf,
	}, proj.ServerKit)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for _, exec := range execs {
		cl, err := NewClient(ClientConfig{ServerAddr: srv.Addr(), Codec: "int8", Logf: quietLogf},
			proj.ClientKits[exec.name], exec)
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
	res, err := srv.Run(pinInitial())
	srv.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.History.Rounds {
		if len(rec.Failures) > 0 || len(rec.Participants) != 3 {
			t.Fatalf("round %d: participants %v, failures %v", rec.Round, rec.Participants, rec.Failures)
		}
	}
	if got := weightsDigest(t, res.FinalWeights); got != want {
		t.Errorf("TLS int8 final weights sha256 %s, want %s", got, want)
	}
}
