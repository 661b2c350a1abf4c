package fl

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"clinfl/internal/fl/durable"
	"clinfl/internal/metrics"
	"clinfl/internal/provision"
	"clinfl/internal/transport"
)

// register dials network as name and performs the MsgRegister handshake by
// hand, returning the server's ack and the open connection.
func register(t *testing.T, network *transport.MemNetwork, name, token, session string) (*transport.Message, transport.MessageConn) {
	t.Helper()
	conn, err := network.Dial(name, transport.LinkProfile{}, transport.LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	meta := map[string]string{}
	if session != "" {
		meta[transport.MetaSession] = session
	}
	if err := conn.Write(&transport.Message{Type: transport.MsgRegister, Sender: name, Token: token, Meta: meta}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	ack, err := conn.Read()
	if err != nil {
		t.Fatalf("%s: no register ack: %v", name, err)
	}
	_ = conn.SetDeadline(time.Time{})
	return ack, conn
}

// joined lists the server's registered clients in name order.
func joined(s *Server) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for _, c := range s.clients {
		if c != nil {
			names = append(names, c.name)
		}
	}
	sort.Strings(names)
	return names
}

// TestServerAdmissionTable drives every admission outcome through one
// server over in-memory links. c2's session comes from the WAL, as after a
// server restart, so c2 re-attaches during registration. Every refusal is
// acked with its named reason and leaves the roster and
// fl_connected_clients as they were.
func TestServerAdmissionTable(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "run.wal")
	wal, err := durable.Open(walPath, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.AppendSession("c2", "s-c2"); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if wal, err = durable.Open(walPath, durable.Options{}); err != nil {
		t.Fatal(err)
	}
	defer wal.Close()

	network := transport.NewMemNetwork()
	defer network.Close()
	reg := metrics.NewRegistry()
	srv, err := NewServer(ServerConfig{
		ExpectedClients: 2, Rounds: 1, RegisterTimeout: 10 * time.Second,
		VerifyToken: tokenFor, Logf: quietLogf, Listener: network, WAL: wal, Metrics: reg,
	}, &provision.StartupKit{Role: provision.RoleServer, Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		_, _ = srv.Run(initialWeights()) // ends when the test closes the server
	}()
	defer func() { srv.Close(); <-runDone }()

	connected := reg.Gauge("fl_connected_clients", "")
	conns := map[string]transport.MessageConn{}
	for _, step := range []struct {
		desc, name, token, session string
		reason                     string // "" = accepted
		roster                     []string
	}{
		{"newcomer", "c1", "tok-c1", "", "", []string{"c1"}},
		{"bad token", "c3", "stolen", "", "bad token", []string{"c1"}},
		{"forged session", "c1", "tok-c1", "forged", "unknown session", []string{"c1"}},
		{"duplicate name", "c1", "tok-c1", "", "duplicate client", []string{"c1"}},
		{"WAL session re-attach", "c2", "tok-c2", "s-c2", "", []string{"c1", "c2"}},
		{"newcomer after close", "c3", "tok-c3", "", "registration closed", []string{"c1", "c2"}},
	} {
		if step.desc == "newcomer after close" {
			// The roster is full, so round 0 starts: c1's task proves the
			// roster closed.
			if task, err := conns["c1"].Read(); err != nil || task.Type != transport.MsgTask {
				t.Fatalf("c1 got no round-0 task: %v, %v", task, err)
			}
		}
		ack, conn := register(t, network, step.name, step.token, step.session)
		if step.reason == "" {
			if ack.Meta["accepted"] != "true" {
				t.Fatalf("%s: refused (%q), want accepted", step.desc, ack.Meta["reason"])
			}
			if step.session != "" && ack.Meta[transport.MetaSession] != step.session {
				t.Errorf("%s: ack session %q, want the presented %q", step.desc, ack.Meta[transport.MetaSession], step.session)
			}
			conns[step.name] = conn
		} else {
			if ack.Meta["accepted"] != "false" || ack.Meta["reason"] != step.reason {
				t.Errorf("%s: ack %v, want accepted=false reason %q", step.desc, ack.Meta, step.reason)
			}
			_ = conn.Close()
		}
		if got := joined(srv); !slices.Equal(got, step.roster) {
			t.Errorf("%s: roster %v, want %v", step.desc, got, step.roster)
		}
		if got := connected.Value(); got != float64(len(step.roster)) {
			t.Errorf("%s: fl_connected_clients = %v, want %d", step.desc, got, len(step.roster))
		}
	}
}

// TestRegistrationNotBlockedBySilentDialers: peers that dial and never send
// MsgRegister hold nobody up. Registration completes inside a
// RegisterTimeout shorter than one silent peer's 5 s read timeout.
func TestRegistrationNotBlockedBySilentDialers(t *testing.T) {
	network := transport.NewMemNetwork()
	defer network.Close()
	const silent, clients = 4, 3
	srv, err := NewServer(ServerConfig{
		ExpectedClients: clients, Rounds: 1, RegisterTimeout: 2 * time.Second,
		VerifyToken: tokenFor, Logf: quietLogf, Listener: network,
	}, &provision.StartupKit{Role: provision.RoleServer, Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < silent; i++ {
		mute, err := network.Dial(fmt.Sprintf("mute-%d", i), transport.LinkProfile{}, transport.LinkProfile{})
		if err != nil {
			t.Fatal(err)
		}
		defer mute.Close()
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		name := fmt.Sprintf("c%d", i)
		cl := leafClient(t, network, name, "tok-"+name, &fakeExecutor{name: name, samples: 1, value: 1})
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
		t.Fatalf("registration stuck behind silent dialers: %v", err)
	}
	if got := strings.Join(res.History.Rounds[0].Participants, ","); got != "c0,c1,c2" {
		t.Errorf("participants %q, want every real client", got)
	}
}

// TestServerRosterGrowsMidRun: a client whose session the WAL recovered
// re-attaches after registration closed, while round 0 is open. It joins
// the roster under the next id, round 0 absorbs the re-attach from an id
// past its slot table, and round 1 samples and aggregates it. A tier sink
// likewise folds an update from an id past its shard table into shard 0.
func TestServerRosterGrowsMidRun(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "run.wal")
	wal, err := durable.Open(walPath, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.AppendSession("c2", "s-c2"); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if wal, err = durable.Open(walPath, durable.Options{}); err != nil {
		t.Fatal(err)
	}
	defer wal.Close()

	network := transport.NewMemNetwork()
	defer network.Close()
	srv, err := NewServer(ServerConfig{
		ExpectedClients: 1, Rounds: 2, RegisterTimeout: 10 * time.Second,
		VerifyToken: tokenFor, Logf: quietLogf, Listener: network, WAL: wal,
	}, &provision.StartupKit{Role: provision.RoleServer, Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var res *Result
	runDone := make(chan error, 1)
	go func() {
		var err error
		res, err = srv.Run(initialWeights())
		runDone <- err
	}()

	// answer reads a client's next task and sends the global model back as
	// its update.
	answer := func(name string, conn transport.MessageConn, round int) {
		t.Helper()
		task, err := conn.Read()
		if err != nil || task.Type != transport.MsgTask || task.Round != round {
			t.Fatalf("%s: want the round-%d task, got %v, %v", name, round, task, err)
		}
		if err := conn.Write(&transport.Message{
			Type: transport.MsgUpdate, Sender: name, Round: round, Payload: task.Payload, NumSamples: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	ack, c1 := register(t, network, "c1", "tok-c1", "")
	if ack.Meta["accepted"] != "true" {
		t.Fatalf("c1 refused: %v", ack.Meta)
	}
	// Round 0 is open, over c1 alone, before c2 re-attaches.
	task, err := c1.Read()
	if err != nil || task.Type != transport.MsgTask || task.Round != 0 {
		t.Fatalf("c1: want the round-0 task, got %v, %v", task, err)
	}
	ack, c2 := register(t, network, "c2", "tok-c2", "s-c2")
	if ack.Meta["accepted"] != "true" {
		t.Fatalf("c2 re-attach refused: %v", ack.Meta)
	}
	if err := c1.Write(&transport.Message{
		Type: transport.MsgUpdate, Sender: "c1", Round: 0, Payload: task.Payload, NumSamples: 1,
	}); err != nil {
		t.Fatal(err)
	}
	answer("c1", c1, 1)
	answer("c2", c2, 1)
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	if id := srv.ros.ids["c2"]; id != 1 {
		t.Errorf("c2 has id %d, want the next id 1", id)
	}
	for i, want := range []string{"c1", "c1,c2"} {
		rec := res.History.Rounds[i]
		if got := strings.Join(rec.Sampled, ","); got != want {
			t.Errorf("round %d sampled %q, want %q", i, got, want)
		}
		if got := strings.Join(rec.Participants, ","); got != want {
			t.Errorf("round %d participants %q, want %q", i, got, want)
		}
	}

	sk := &tierSink{widths: []int{4}}
	sk.open([]int{0})
	if err := sk.accept(1, scriptUpdate("c2", 0)); err != nil || sk.shards[0] == nil {
		t.Errorf("tier sink: update from an id past its shard table: %v, shard 0 %v", err, sk.shards[0])
	}
}
