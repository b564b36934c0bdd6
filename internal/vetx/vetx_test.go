package vetx

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixture tests: each testdata file marks the lines an analyzer must flag
// with a trailing "// want:<analyzer>" comment. The test runs the analyzer
// through Run (so suppression directives are exercised too) and compares
// the (line, analyzer) set of findings against the markers.

var wantRe = regexp.MustCompile(`want:([a-z]+)`)

// parseFixture parses testdata files into a Package without type info.
func parseFixture(t *testing.T, importPath string, filenames ...string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	for _, fn := range filenames {
		path := filepath.Join("testdata", fn)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		files = append(files, f)
	}
	return &Package{ImportPath: importPath, Dir: "testdata", Fset: fset, Files: files}
}

// typecheckFixture fills in Types/Info using the given importer.
func typecheckFixture(t *testing.T, pkg *Package, imp types.Importer) {
	t.Helper()
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkg.ImportPath, pkg.Fset, pkg.Files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", pkg.ImportPath, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
}

// markers collects the expected (line -> analyzer set) map from want
// comments.
func markers(pkg *Package) map[int]map[string]bool {
	out := map[int]map[string]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ms := wantRe.FindAllStringSubmatch(c.Text, -1)
				if len(ms) == 0 {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				if out[line] == nil {
					out[line] = map[string]bool{}
				}
				for _, m := range ms {
					out[line][m[1]] = true
				}
			}
		}
	}
	return out
}

// checkFindings runs the analyzer via Run and diffs findings against
// markers.
func checkFindings(t *testing.T, pkg *Package, an *Analyzer) {
	t.Helper()
	want := markers(pkg)
	got := map[int]map[string]bool{}
	for _, f := range Run([]*Package{pkg}, []*Analyzer{an}) {
		if got[f.Pos.Line] == nil {
			got[f.Pos.Line] = map[string]bool{}
		}
		got[f.Pos.Line][f.Analyzer] = true
		if !want[f.Pos.Line][f.Analyzer] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for line, names := range want {
		for name := range names {
			if !got[line][name] {
				t.Errorf("missing %s finding at line %d", name, line)
			}
		}
	}
}

func TestPinBalance(t *testing.T) {
	pkg := parseFixture(t, "fixture/pinfix", "pinbalance.go")
	checkFindings(t, pkg, PinBalance())
}

func TestErrAudit(t *testing.T) {
	pkg := parseFixture(t, "repro/internal/errfix", "erraudit.go")
	typecheckFixture(t, pkg, importer.ForCompiler(pkg.Fset, "source", nil))
	checkFindings(t, pkg, ErrAudit())
}

func TestErrAuditSkipsNonInternal(t *testing.T) {
	pkg := parseFixture(t, "example.com/public/errfix", "erraudit.go")
	typecheckFixture(t, pkg, importer.ForCompiler(pkg.Fset, "source", nil))
	if fs := ErrAudit().Run(pkg); len(fs) != 0 {
		t.Errorf("erraudit flagged non-internal package: %v", fs)
	}
}

func TestLockOrder(t *testing.T) {
	pkg := parseFixture(t, "repro/internal/lockordfix", "lockorder.go")
	typecheckFixture(t, pkg, importer.ForCompiler(pkg.Fset, "source", nil))
	checkFindings(t, pkg, LockOrder())
}

// TestLockOrderCycleMessage pins the acceptance-critical behavior: the
// seeded two-mutex cycle is reported as a deadlock candidate with both
// acquisition paths.
func TestLockOrderCycleMessage(t *testing.T) {
	pkg := parseFixture(t, "repro/internal/lockordfix", "lockorder.go")
	typecheckFixture(t, pkg, importer.ForCompiler(pkg.Fset, "source", nil))
	var cycle *Finding
	for _, f := range Run([]*Package{pkg}, []*Analyzer{LockOrder()}) {
		if strings.Contains(f.Message, "deadlock candidate") {
			f := f
			cycle = &f
		}
	}
	if cycle == nil {
		t.Fatal("seeded a->b->a cycle not reported")
	}
	for _, want := range []string{
		"lockordfix.S.a -> lockordfix.S.b -> lockordfix.S.a",
		"in (*S).helper",
		"in (*S).g",
	} {
		if !strings.Contains(cycle.Message, want) {
			t.Errorf("cycle message missing %q:\n%s", want, cycle.Message)
		}
	}
}

// TestUnusedSuppression: a directive that suppresses nothing is itself a
// finding — but only when every analyzer it names took part in the run —
// and so is a directive naming an analyzer the suite does not have.
func TestUnusedSuppression(t *testing.T) {
	pkg := parseFixture(t, "repro/internal/supfix", "unusedsuppression.go")
	var unused, unknown []Finding
	for _, f := range Run([]*Package{pkg}, []*Analyzer{PinBalance()}) {
		switch {
		case f.Analyzer == "vetx" && strings.Contains(f.Message, "suppresses nothing"):
			unused = append(unused, f)
		case f.Analyzer == "vetx" && strings.Contains(f.Message, "unknown analyzer"):
			unknown = append(unknown, f)
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if len(unused) != 1 || unused[0].Pos.Line != markerLine(t, pkg, "UNUSED") {
		t.Errorf("want one unused-suppression finding at line %d, got %v", markerLine(t, pkg, "UNUSED"), unused)
	}
	if len(unknown) != 1 || unknown[0].Pos.Line != markerLine(t, pkg, "UNKNOWN") {
		t.Errorf("want one unknown-analyzer finding at line %d, got %v", markerLine(t, pkg, "UNKNOWN"), unknown)
	}
}

// markerLine finds the fixture line carrying marker so the test doesn't
// hard-code line numbers.
func markerLine(t *testing.T, pkg *Package, marker string) int {
	t.Helper()
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, marker) {
					return pkg.Fset.Position(c.Pos()).Line
				}
			}
		}
	}
	t.Fatalf("no %s marker in fixture", marker)
	return 0
}

// mapImporter resolves fixture import paths to pre-typechecked packages.
type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("fixture importer: unknown path %q", path)
}

func layeringFixture(t *testing.T) (*Package, LayeringConfig) {
	t.Helper()
	stor := parseFixture(t, "fixture/storage", filepath.Join("layering", "storage", "storage.go"))
	typecheckFixture(t, stor, nil)

	cons := parseFixture(t, "fixture/consumer", filepath.Join("layering", "consumer", "consumer.go"))
	typecheckFixture(t, cons, mapImporter{"fixture/storage": stor.Types})

	cfg := LayeringConfig{
		StoragePath: "fixture/storage",
		Restricted: map[string]map[string]bool{
			"Pager": set("Fetch", "Unpin"),
			"Heap":  set("Insert"),
		},
		Allowed: set("fixture/storage"),
	}
	return cons, cfg
}

func TestLayering(t *testing.T) {
	cons, cfg := layeringFixture(t)
	checkFindings(t, cons, Layering(cfg))
}

func TestLayeringAllowedPackage(t *testing.T) {
	cons, cfg := layeringFixture(t)
	cfg.Allowed["fixture/consumer"] = true
	if fs := Layering(cfg).Run(cons); len(fs) != 0 {
		t.Errorf("layering flagged an allowed package: %v", fs)
	}
}

// TestRepoClean is the self-test: the production analyzer suite must come
// back clean on the repository itself (every real violation fixed or
// carrying a justified suppression). Skipped in -short: it typechecks the
// whole module.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load returned no packages")
	}
	for _, f := range Run(pkgs, DefaultAnalyzers()) {
		t.Errorf("%s", f)
	}
}
