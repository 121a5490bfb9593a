package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// deadAPIAllowlist names the exported functions and methods that no
// non-test code of this module or of bench/ uses, yet stay, each with the
// contract it guards. Anything else that only tests call is dead API:
// delete it with the tests that checked nothing else.
var deadAPIAllowlist = map[string]string{
	"DegreeMarker":        "the per-entity marker degree the kernel and TA degree-list bits are checked against",
	"SyncedSeq":           "durability tests read the fsynced sequence to prove an acknowledged write is on disk",
	"NewModelFromVectors": "builds the small synthetic embedding models the embedding, classify and kdtree tests need",
	"RebuildSummaries":    "§4.2.2's weighting seam; items 5 (flat marker tables) and 17 (the summary-fold deep check) build on it",
	"RestoreSummaries":    "undoes RebuildSummaries, so tests can re-weight the shared fixture (items 5 and 17)",
	"CentroidNorm":        "journal tests hold the incrementally kept centroid norm bit-identical to a recomputed one",
	"SetFuzzyVariant":     "the fuzzy-variant ablation benchmark switches the §3.1 t-norm",
	"SetW2VThreshold":     "the θ1 ablation benchmark sweeps Figure 5's word2vec threshold",
	"FastHits":            "Appendix B's substitution-index tests count lookups the fast path resolved",
	"SlowHits":            "Appendix B's substitution-index tests count lookups that fell back to the k-d tree",
	"NewAnd":              "internal/fuzzy's Expr tree stays whole as the reference algebra beside the query oracle",
	"NewOr":               "internal/fuzzy's Expr tree stays whole as the reference algebra beside the query oracle",
	"Preds":               "internal/fuzzy's Expr tree stays whole as the reference algebra beside the query oracle",
}

// interfaceMethods names the methods of standard-library interfaces that
// the library calling them, not this module, invokes by name.
var interfaceMethods = map[string]string{
	"Error":     "error",
	"String":    "fmt.Stringer",
	"Len":       "sort.Interface",
	"Less":      "sort.Interface",
	"Swap":      "sort.Interface",
	"ServeHTTP": "http.Handler",
}

// unusedExported parses the Go files given as slash path → source and
// returns, sorted, "path: Name" for every exported function or method
// declared in a non-test file outside bench/ whose name no non-test file
// uses, unless allow names it or it is a method of interfaceMethods. A
// name is used wherever it appears as an identifier other than a
// function's own declaration: a call, a method value, an interface's
// method list. The rule is by name, not by type, so two methods called
// Close are both live once either is called.
func unusedExported(files map[string][]byte, allow map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	var decls []string
	for path, src := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !fn.Name.IsExported() || strings.HasPrefix(path, "bench/") ||
				allow[fn.Name.Name] != "" || (fn.Recv != nil && interfaceMethods[fn.Name.Name] != "") {
				continue
			}
			decls = append(decls, path+": "+fn.Name.Name)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	var dead []string
	for _, d := range decls {
		if !used[d[strings.LastIndex(d, " ")+1:]] {
			dead = append(dead, d)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// TestUnusedExportedRule runs the scanner over a fixture, so the rule is
// checked apart from the state of the repository.
func TestUnusedExportedRule(t *testing.T) {
	files := map[string][]byte{
		"internal/a/a.go": []byte(`package a

func Dead()     {}
func Called()   {}
func TestOnly() {}
func Kept()     {}

type T struct{}

func (T) String() string { return "t" }
`),
		"internal/b/b.go": []byte(`package b

import "repro/internal/a"

func use() { a.Called() }
`),
		"internal/a/a_test.go": []byte(`package a

func use() { TestOnly() }
`),
	}
	got, err := unusedExported(files, map[string]string{"Kept": "a reason"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/a/a.go: Dead", "internal/a/a.go: TestOnly"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unusedExported = %q, want %q", got, want)
	}
}

// moduleSources reads every Go file of the repository, bench/ included,
// keyed by slash path relative to the root.
func moduleSources(t *testing.T) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		files[filepath.ToSlash(path)] = src
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestNoDeadExportedAPI fails on an exported function or method that only
// tests call: no binary, endpoint, smoke or benchmark reaches it, so it
// is code to maintain that serves nothing. Delete it, or allowlist it
// with the contract it guards.
func TestNoDeadExportedAPI(t *testing.T) {
	files := moduleSources(t)
	dead, err := unusedExported(files, deadAPIAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s is exported, but only tests use it", d)
	}
	// An entry for a name that is used now, or that nothing declares any
	// more, is stale.
	bare, err := unusedExported(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name := range deadAPIAllowlist {
		if !slices.ContainsFunc(bare, func(d string) bool { return strings.HasSuffix(d, ": "+name) }) {
			t.Errorf("allowlist entry %s is stale: it names no exported function that only tests use", name)
		}
	}
}
