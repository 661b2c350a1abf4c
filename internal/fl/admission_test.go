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

// roster lists the server's registered clients in name order.
func roster(s *Server) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.clients))
	for name := range s.clients {
		names = append(names, name)
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
		if got := roster(srv); !slices.Equal(got, step.roster) {
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
