package main

import (
	"go/ast"
	"go/parser"
	gotoken "go/token"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"clinfl/internal/core"
	"clinfl/internal/ehr"
	"clinfl/internal/fl"
	"clinfl/internal/provision"
	"clinfl/internal/transport"
)

// clientFlagDefaults returns the literal default of every flag flclient
// declares, keyed by flag name, read from its source.
func clientFlagDefaults(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(gotoken.NewFileSet(), "../flclient/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		name, ok1 := call.Args[0].(*ast.BasicLit)
		val, ok2 := call.Args[1].(*ast.BasicLit)
		if ok1 && ok2 && name.Kind == gotoken.STRING {
			out[name.Value[1:len(name.Value)-1]] = val.Value
		}
		return true
	})
	return out
}

// TestDefaultVocabMatchesClient encodes the cohort flclient builds from
// its default flags and checks that flserver's -vocab default is that
// cohort's vocabulary size, so the two binaries run together unflagged.
func TestDefaultVocabMatchesClient(t *testing.T) {
	defaults := clientFlagDefaults(t)
	flagInt := func(name string) int64 {
		v, err := strconv.ParseInt(defaults[name], 10, 64)
		if err != nil {
			t.Fatalf("flclient -%s default %q: %v", name, defaults[name], err)
		}
		return v
	}
	seed := flagInt("seed")
	ecfg := ehr.DefaultConfig()
	ecfg.Seed = seed
	ecfg.Patients = int(flagInt("patients"))
	ecfg.CorpusSentences = 1
	_, vocab, err := core.EncodeCohort(ecfg, int(flagInt("maxlen")), seed)
	if err != nil {
		t.Fatal(err)
	}
	if vocab.Size() != defaultVocab {
		t.Fatalf("flclient's default cohort has a %d-token vocabulary; flserver -vocab defaults to %d", vocab.Size(), defaultVocab)
	}
}

// TestRefusalsNameTheFlag: a round setting the server library refuses
// comes back naming the field and every flag that sets a field it names.
func TestRefusalsNameTheFlag(t *testing.T) {
	for _, tc := range []struct {
		cfg  fl.ServerConfig
		want []string
	}{
		{fl.ServerConfig{Rounds: -3}, []string{"Rounds", "-rounds"}},
		{fl.ServerConfig{SampleFraction: math.NaN()}, []string{"SampleFraction", "-sample"}},
		{fl.ServerConfig{MinUpdates: 9}, []string{"MinUpdates", "-min-updates"}},
		{fl.ServerConfig{MinClients: -1}, []string{"MinClients", "-min-clients"}},
		{fl.ServerConfig{RoundDeadline: -time.Second}, []string{"RoundDeadline", "-deadline"}},
		{fl.ServerConfig{Reconcile: &fl.ReconcilePolicy{QuarantineAfter: 2}}, []string{"Reconcile", "-quarantine-after", "-deadline"}},
		{fl.ServerConfig{Reconcile: &fl.ReconcilePolicy{QuarantineAfter: -1}, RoundDeadline: time.Second}, []string{"QuarantineAfter", "-quarantine-after"}},
		{fl.ServerConfig{Codec: "topk"}, []string{"Codec", "-codec"}},
		{fl.ServerConfig{Codec: "bogus"}, []string{"Codec", "-codec"}},
	} {
		tc.cfg.ExpectedClients, tc.cfg.Listener = 2, transport.NewMemNetwork()
		tc.cfg.VerifyToken = func(string, string) bool { return true }
		srv, err := fl.NewServer(tc.cfg, &provision.StartupKit{Role: provision.RoleServer, Name: "server"})
		if err == nil {
			srv.Close()
			t.Errorf("%s: accepted", tc.want[0])
			continue
		}
		msg := flagged(err).Error()
		for _, w := range tc.want {
			if !strings.Contains(msg, w) {
				t.Errorf("refusal %q does not name %s", msg, w)
			}
		}
	}
}
