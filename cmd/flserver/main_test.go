package main

import (
	"go/ast"
	"go/parser"
	gotoken "go/token"
	"strconv"
	"testing"

	"clinfl/internal/core"
	"clinfl/internal/ehr"
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
