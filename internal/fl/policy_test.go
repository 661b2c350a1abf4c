package fl

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clinfl/internal/fl/durable"
	"clinfl/internal/provision"
	"clinfl/internal/transport"
)

// policyFronts builds each front end over a two-client roster from the
// round settings in c: the Controller over two executors, a Server and an
// Edge expecting two clients. The Edge takes only the settings EdgeConfig
// has, MinClients and RoundDeadline.
var policyFronts = map[string]func(c ControllerConfig) error{
	"controller": func(c ControllerConfig) error {
		_, err := NewController(c, []Executor{&fakeExecutor{name: "a", samples: 1}, &fakeExecutor{name: "b", samples: 1}})
		return err
	},
	"server": func(c ControllerConfig) error {
		s, err := NewServer(ServerConfig{
			ExpectedClients: 2, VerifyToken: tokenFor, Logf: quietLogf, Listener: transport.NewMemNetwork(),
			Rounds: c.Rounds, MinClients: c.MinClients, MinUpdates: c.MinUpdates,
			SampleFraction: c.SampleFraction, RoundDeadline: c.RoundDeadline,
			Aggregator: c.Aggregator, AsyncAggregator: c.AsyncAggregator,
			WAL: c.WAL, Reconcile: c.Reconcile, Tier: c.Tier != nil,
		}, &provision.StartupKit{Role: provision.RoleServer, Name: "server"})
		if err == nil {
			s.Close()
		}
		return err
	},
	"edge": func(c ControllerConfig) error {
		e, err := NewEdge(EdgeConfig{
			Name: "edge", Token: "tok-edge", Listener: transport.NewMemNetwork(),
			DialParent:      func() (transport.MessageConn, error) { return nil, errors.New("no parent") },
			ExpectedClients: 2, VerifyToken: tokenFor,
			MinClients: c.MinClients, RoundDeadline: c.RoundDeadline,
		})
		if err == nil {
			e.down.Close()
		}
		return err
	},
}

// TestRoundPolicyRefusedOnEveryFrontEnd runs one table of bad round
// settings against NewController, NewServer and NewEdge. Each is refused at
// construction on every front end that has the field, and the reason names
// the same field (and, for a conflict, both features) on each.
func TestRoundPolicyRefusedOnEveryFrontEnd(t *testing.T) {
	wal, err := durable.Open(filepath.Join(t.TempDir(), "run.wal"), durable.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	retry := &ReconcilePolicy{QuarantineAfter: 2}
	all, flat := []string{"controller", "server", "edge"}, []string{"controller", "server"}
	for _, tc := range []struct {
		name   string
		cfg    ControllerConfig
		fronts []string
		want   []string
	}{
		{"negative rounds", ControllerConfig{Rounds: -3}, flat, []string{"Rounds"}},
		{"NaN sample fraction", ControllerConfig{SampleFraction: math.NaN()}, flat, []string{"SampleFraction"}},
		{"negative sample fraction", ControllerConfig{SampleFraction: -0.5}, flat, []string{"SampleFraction"}},
		{"sample fraction above one", ControllerConfig{SampleFraction: 1.5}, flat, []string{"SampleFraction"}},
		{"negative min updates", ControllerConfig{MinUpdates: -3}, flat, []string{"MinUpdates"}},
		{"min updates above the roster", ControllerConfig{MinUpdates: 10}, flat, []string{"MinUpdates"}},
		{"negative min clients", ControllerConfig{MinClients: -4}, all, []string{"MinClients"}},
		{"min clients above the roster", ControllerConfig{MinClients: 9}, all, []string{"MinClients"}},
		{"negative deadline", ControllerConfig{RoundDeadline: -time.Second}, all, []string{"RoundDeadline"}},
		{"reconcile without a deadline", ControllerConfig{Reconcile: retry}, flat, []string{"Reconcile", "RoundDeadline"}},
		{"fedasync alpha out of range", ControllerConfig{AsyncAggregator: FedAsync{Alpha: 2}}, flat, []string{"AsyncAggregator", "alpha"}},
		{"tier width not positive", ControllerConfig{Tier: &TierConfig{Aggregators: []int{0}}}, []string{"controller"}, []string{"Tier.Aggregators"}},
		{"tier with fedasync", ControllerConfig{Tier: &TierConfig{}, AsyncAggregator: FedAsync{}}, flat, []string{"Tier", "AsyncAggregator"}},
		{"tier with WAL", ControllerConfig{Tier: &TierConfig{}, WAL: wal}, flat, []string{"Tier", "WAL"}},
		{"tier with reconcile", ControllerConfig{Tier: &TierConfig{}, Reconcile: retry, RoundDeadline: time.Second}, flat, []string{"Tier", "Reconcile"}},
		{"tier with a custom aggregator", ControllerConfig{Tier: &TierConfig{}, Aggregator: infAggregator{}}, flat, []string{"Tier", "Aggregator"}},
		{"negative quarantine threshold", reconciling(ReconcilePolicy{QuarantineAfter: -1}), flat, []string{"Reconcile.QuarantineAfter"}},
		{"negative max assign attempts", reconciling(ReconcilePolicy{MaxAssignAttempts: -1}), flat, []string{"Reconcile.MaxAssignAttempts"}},
		{"negative max park", reconciling(ReconcilePolicy{MaxPark: -time.Second}), flat, []string{"Reconcile.MaxPark"}},
	} {
		for _, front := range tc.fronts {
			err := policyFronts[front](tc.cfg)
			if err == nil {
				t.Errorf("%s: %s accepted it", tc.name, front)
				continue
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%s: %s refused it with %q, which does not name %s", tc.name, front, err, w)
				}
			}
		}
	}

	// The edges of each range are settings, not errors.
	for _, tc := range []struct {
		name   string
		cfg    ControllerConfig
		fronts []string
	}{
		{"zero rounds", ControllerConfig{}, all},
		{"sample fraction one", ControllerConfig{SampleFraction: 1}, flat},
		{"quorum and trigger at the roster", ControllerConfig{MinClients: 2, MinUpdates: 2}, flat},
		{"min clients at the roster", ControllerConfig{MinClients: 2}, all},
		{"reconcile with a deadline", ControllerConfig{Reconcile: retry, RoundDeadline: time.Second}, flat},
		{"fedasync alpha one", ControllerConfig{AsyncAggregator: FedAsync{Alpha: 1}}, flat},
		{"tier", ControllerConfig{Tier: &TierConfig{}}, flat},
		{"in-process tier widths", ControllerConfig{Tier: &TierConfig{Aggregators: []int{64, 8}}}, []string{"controller"}},
		{"quarantine on the first failure", reconciling(ReconcilePolicy{QuarantineAfter: 1}), flat},
	} {
		for _, front := range tc.fronts {
			if err := policyFronts[front](tc.cfg); err != nil {
				t.Errorf("%s: %s refused it: %v", tc.name, front, err)
			}
		}
	}
}

// reconciling is a round policy that runs p under a deadline, as Reconcile
// requires.
func reconciling(p ReconcilePolicy) ControllerConfig {
	return ControllerConfig{Reconcile: &p, RoundDeadline: time.Second}
}
