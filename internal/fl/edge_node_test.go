package fl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"

	"clinfl/internal/fl/hier"
	"clinfl/internal/provision"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

func tokenFor(name, token string) bool { return token == "tok-"+name }

func memDialer(network *transport.MemNetwork, name string) func() (transport.MessageConn, error) {
	return func() (transport.MessageConn, error) {
		return network.Dial(name, transport.LinkProfile{}, transport.LinkProfile{})
	}
}

func leafClient(t *testing.T, network *transport.MemNetwork, name, token string, exec Executor) *Client {
	t.Helper()
	cl, err := NewClient(ClientConfig{Logf: quietLogf, Dialer: memDialer(network, name)},
		&provision.StartupKit{Role: provision.RoleClient, Name: name, Token: token}, exec)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestEdgeDropsSilentRegistrant: a peer that connects to an edge and never
// sends MsgRegister delays nobody: the shard behind it registers and the
// edge joins its parent well inside the silent peer's 5 s read timeout.
func TestEdgeDropsSilentRegistrant(t *testing.T) {
	rootNet, edgeNet := transport.NewMemNetwork(), transport.NewMemNetwork()
	defer rootNet.Close()
	defer edgeNet.Close()
	edge, err := NewEdge(EdgeConfig{
		Name: "edge-0", Token: "tok-edge-0", DialParent: memDialer(rootNet, "edge-0"),
		Listener: edgeNet, ExpectedClients: 1, RegisterTimeout: 10 * time.Second,
		VerifyToken: tokenFor,
	})
	if err != nil {
		t.Fatal(err)
	}
	mute, err := edgeNet.Dial("mute", transport.LinkProfile{}, transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	leaf := leafClient(t, edgeNet, "leaf", "tok-leaf", &fakeExecutor{name: "leaf", samples: 1})
	go leaf.Run() //nolint:errcheck
	edgeDone := make(chan error, 1)
	go func() { _, err := edge.Run(); edgeDone <- err }()

	accepted := make(chan transport.MessageConn, 1)
	go func() {
		if conn, err := rootNet.AcceptConn(); err == nil {
			accepted <- conn
		}
	}()
	var parent transport.MessageConn
	select {
	case parent = <-accepted:
	case <-time.After(3 * time.Second):
		t.Fatal("edge never joined its parent (registration stuck behind the silent peer?)")
	}
	defer parent.Close()
	if reg, err := parent.Read(); err != nil || reg.Type != transport.MsgRegister {
		t.Fatalf("parent registration = %v, %v", reg, err)
	}
	if err := parent.Write(&transport.Message{Type: transport.MsgRegisterAck, Meta: map[string]string{"accepted": "true"}}); err != nil {
		t.Fatal(err)
	}
	if err := parent.Write(&transport.Message{Type: transport.MsgFinish}); err != nil {
		t.Fatal(err)
	}
	if err := <-edgeDone; err != nil {
		t.Fatalf("edge run: %v", err)
	}
}

// TestEdgeRejectionReachesClient: a leaf an edge turns away is told why,
// under the key the stock client reads.
func TestEdgeRejectionReachesClient(t *testing.T) {
	rootNet, edgeNet := transport.NewMemNetwork(), transport.NewMemNetwork()
	defer rootNet.Close()
	edge, err := NewEdge(EdgeConfig{
		Name: "edge-0", Token: "tok-edge-0", DialParent: memDialer(rootNet, "edge-0"),
		Listener: edgeNet, ExpectedClients: 1, RegisterTimeout: 10 * time.Second,
		VerifyToken: tokenFor,
	})
	if err != nil {
		t.Fatal(err)
	}
	edgeDone := make(chan error, 1)
	go func() { _, err := edge.Run(); edgeDone <- err }()

	_, err = leafClient(t, edgeNet, "leaf", "stolen", &fakeExecutor{name: "leaf", samples: 1}).Run()
	if err == nil || !strings.Contains(err.Error(), "bad token") {
		t.Fatalf("rejected leaf saw %v, want the edge's reason (bad token)", err)
	}
	edgeNet.Close()
	if err := <-edgeDone; err == nil {
		t.Fatal("edge registered a shard it had rejected")
	}
}

// runTierFederation runs three rounds of root ← 2 edges ← 2 leaves each over
// in-memory links. faults scripts the root→edge-0 direction of edge-0's first
// connection. It returns the root's result and how often edge-0 dialled.
func runTierFederation(t *testing.T, faults transport.LinkProfile) (*Result, int32) {
	t.Helper()
	rootNet := transport.NewMemNetwork()
	defer rootNet.Close()
	srv, err := NewServer(ServerConfig{
		ExpectedClients: 2, Rounds: 3, MinClients: 2, RegisterTimeout: 10 * time.Second,
		Tier: true, VerifyToken: tokenFor, Logf: quietLogf, Listener: rootNet,
	}, &provision.StartupKit{Role: provision.RoleServer, Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	var dials atomic.Int32
	leaves := [][]*fakeExecutor{
		{{name: "a", samples: 8, value: 1.5}, {name: "b", samples: 16, value: -2.25}},
		{{name: "c", samples: 24, value: 0.125}, {name: "d", samples: 16, value: 3}},
	}
	for i, shard := range leaves {
		edgeNet := transport.NewMemNetwork()
		defer edgeNet.Close()
		name := fmt.Sprintf("edge-%d", i)
		dial := memDialer(rootNet, name)
		if i == 0 {
			dial = func() (transport.MessageConn, error) {
				var down transport.LinkProfile
				if dials.Add(1) == 1 {
					down = faults
				}
				return rootNet.Dial(name, transport.LinkProfile{}, down)
			}
		}
		edge, err := NewEdge(EdgeConfig{
			Name: name, Token: "tok-" + name, DialParent: dial,
			Listener: edgeNet, ExpectedClients: len(shard), RegisterTimeout: 10 * time.Second,
			VerifyToken: tokenFor, RoundDeadline: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := edge.Run(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
		for _, exec := range shard {
			cl := leafClient(t, edgeNet, exec.name, "tok-"+exec.name, exec)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := cl.Run(); err != nil {
					t.Errorf("leaf %s: %v", cl.kit.Name, err)
				}
			}()
		}
	}
	res, err := srv.Run(initialWeights())
	srv.Close() // release edges and leaves still blocked on a dead run
	wg.Wait()
	if err != nil {
		t.Fatalf("root run: %v", err)
	}
	return res, dials.Load()
}

// TestEdgeRidesOutLostParentLink corrupts the root's round-1 task to one
// edge in transit. The edge's read fails, it redials presenting its session
// token, the root re-attaches it mid-gather and re-sends the task, the shard
// runs the round, and the federation ends on the very model of a fault-free
// run — the lost link costs a retry, not a shard.
func TestEdgeRidesOutLostParentLink(t *testing.T) {
	clean, _ := runTierFederation(t, transport.LinkProfile{})
	// Down-direction message 0 is the register ack, 1 the round-0 task, 2 the
	// round-1 task.
	faulted, dials := runTierFederation(t, transport.LinkProfile{CorruptMsgs: []int{2}})
	if dials < 2 {
		t.Errorf("edge-0 dialled %d times, want a reconnect after the corrupt frame", dials)
	}
	for _, rec := range faulted.History.Rounds {
		if got := strings.Join(rec.Participants, ","); got != "edge-0,edge-1" {
			t.Errorf("round %d participants %q, want both edges", rec.Round, got)
		}
	}
	for name, want := range clean.FinalWeights {
		got := faulted.FinalWeights[name]
		for i, w := range want.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(w) {
				t.Fatalf("%s[%d] = %v after the reconnect, fault-free run has %v", name, i, got.Data()[i], w)
			}
		}
	}
}

// errorExecutor fails every round with its text.
type errorExecutor struct{ name, text string }

func (x *errorExecutor) Name() string { return x.name }

func (x *errorExecutor) ExecuteRound(int, map[string]*tensor.Matrix) (*ClientUpdate, error) {
	return nil, errors.New(x.text)
}

// edgeRound runs one round of an edge over the leaves, with the test as its
// parent, and returns the partial the edge sent up.
func edgeRound(t *testing.T, leaves []Executor) *hier.Partial {
	t.Helper()
	// The leaves are waited for after both networks close, so a failed
	// check ends them before the test returns.
	var wg sync.WaitGroup
	defer wg.Wait()
	rootNet, edgeNet := transport.NewMemNetwork(), transport.NewMemNetwork()
	defer rootNet.Close()
	defer edgeNet.Close()
	edge, err := NewEdge(EdgeConfig{
		Name: "edge-0", Token: "tok-edge-0", DialParent: memDialer(rootNet, "edge-0"),
		Listener: edgeNet, ExpectedClients: len(leaves), RegisterTimeout: 10 * time.Second,
		VerifyToken: tokenFor, RoundDeadline: 10 * time.Second, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, exec := range leaves {
		cl := leafClient(t, edgeNet, exec.Name(), "tok-"+exec.Name(), exec)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Run(); err != nil {
				t.Errorf("leaf %.20s: %v", cl.kit.Name, err)
			}
		}()
	}
	edgeDone := make(chan error, 1)
	go func() { _, err := edge.Run(); edgeDone <- err }()

	parent, err := rootNet.AcceptConn()
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	if reg, err := parent.Read(); err != nil || reg.Type != transport.MsgRegister {
		t.Fatalf("parent registration = %v, %v", reg, err)
	}
	global, err := EncodeWeights(initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []*transport.Message{
		{Type: transport.MsgRegisterAck, Meta: map[string]string{"accepted": "true"}},
		{Type: transport.MsgTask, Round: 0, Payload: global},
	} {
		if err := parent.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	up, err := parent.Read()
	if err != nil {
		t.Fatal(err)
	}
	if up.Type != transport.MsgUpdate {
		t.Fatalf("edge answered %s (%s), want its partial", up.Type, up.Meta["error"])
	}
	p, err := hier.DecodePartial(up.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Write(&transport.Message{Type: transport.MsgFinish, Payload: global}); err != nil {
		t.Fatal(err)
	}
	if err := <-edgeDone; err != nil {
		t.Fatalf("edge run: %v", err)
	}
	return p
}

// TestEdgeSurvivesLongLeafNameAndError: a partial carries the aggregate, not
// the names of its leaves, and a failure entry is cut to the encoder's cap, so
// neither a 300-byte leaf name nor a 2 KB error text fails the encode and
// loses the good leaves' updates with it. The in-process tier climb encodes
// (sizes) every shard partial too, so a long executor name must not abort its
// run either.
func TestEdgeSurvivesLongLeafNameAndError(t *testing.T) {
	long := strings.Repeat("n", 300)
	good := &fakeExecutor{name: "good", samples: 5, value: 2}
	for _, tc := range []struct {
		name    string
		leaves  []Executor
		weight  int64
		failure string // the leaf a failure entry must name; "" for none
	}{
		{"300-byte leaf name", []Executor{&fakeExecutor{name: long, samples: 3, value: 1}, good}, 3 + 5, ""},
		// 1,000 two-byte runes: the 1,024-byte cut falls inside one.
		{"2 KB error text", []Executor{&errorExecutor{name: "bad", text: strings.Repeat("é", 1000)}, good}, 5, "bad"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := edgeRound(t, tc.leaves)
			if p.Weight() != tc.weight {
				t.Errorf("partial weight %d, want %d (the good leaves')", p.Weight(), tc.weight)
			}
			fails := p.Failures()
			if tc.failure == "" {
				if len(fails) != 0 {
					t.Errorf("failures = %.80q, want none", fails)
				}
				return
			}
			if len(fails) != 1 {
				t.Fatalf("%d failure entries, want 1", len(fails))
			}
			f := fails[0]
			if !strings.HasPrefix(f, tc.failure+": ") || len(f) > 1024 || !utf8.ValidString(f) {
				t.Errorf("failure entry %.40q… is %d bytes (valid UTF-8: %v), want one naming %q in at most 1024",
					f, len(f), utf8.ValidString(f), tc.failure)
			}
		})
	}
	t.Run("controller with a 300-byte executor name", func(t *testing.T) {
		ctrl, err := NewController(ControllerConfig{Rounds: 2, Tier: &TierConfig{Aggregators: []int{2, 1}}}, []Executor{
			&fakeExecutor{name: long, samples: 3, value: 1}, &fakeExecutor{name: "b", samples: 1, value: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ctrl.Run(context.Background(), initialWeights())
		if err != nil {
			t.Fatal(err)
		}
		if n := len(res.History.Rounds); n != 2 {
			t.Fatalf("%d rounds completed, want 2", n)
		}
	})
}

// TestOldPartialRefusedByName: a partial in the previous encoding (an edge
// not upgraded with its root) is not a partial to a tier root; it is refused
// as one edge's bad payload, by its magic, not misparsed.
func TestOldPartialRefusedByName(t *testing.T) {
	p := hier.NewPartial()
	if err := p.Fold(hier.Update{ClientName: "leaf", Weights: initialWeights(), NumSamples: 2}); err != nil {
		t.Fatal(err)
	}
	blob, err := hier.EncodePartial(p)
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte("CFHP1\n"), blob[len(hier.PartialMagic):]...)
	s := &Server{cfg: ServerConfig{Tier: true}}
	_, err = s.handleReply("edge-0", &transport.Message{Type: transport.MsgUpdate, Payload: old})
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("CFHP1 uplink: err = %v, want a bad magic refusal", err)
	}
}
