// Package vetx is the repo's codebase-specific static-analysis framework:
// a stdlib-only (go/parser + go/ast + go/types) driver plus analyzers that
// mechanically enforce protocols the tests cannot hold on paths they do
// not take — the global lock order, the pager pin/unpin protocol, error
// propagation, and the storage layering rules. An analyzer stays only
// while it catches a defect, found or seeded, that the tests, -race and
// -tags invariants all miss; the other contracts are held by behaviour
// tests in the packages they guard.
//
// Run it as `go run ./cmd/vetx ./...`. A finding can be suppressed with an
// inline directive on the offending line or the line above it:
//
//	//vetx:ignore <analyzer>[,<analyzer>...] -- <justification>
//
// The justification is mandatory; a directive without one is itself
// reported, and so is one naming an analyzer the suite does not have.
// See DESIGN.md "Static analysis & invariants" for the contracts each
// analyzer enforces.
package vetx

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic at a source position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional path:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named check over a loaded package, or — when RunProgram
// is set — over the whole-program call graph built from every loaded
// package at once.
type Analyzer struct {
	Name string
	Doc  string
	// NeedTypes marks analyzers that require type information; the driver
	// skips them (with an error finding) when type checking failed.
	NeedTypes bool
	Run       func(pkg *Package) []Finding
	// RunProgram marks an interprocedural analyzer: it receives the call
	// graph over all packages (see BuildProgram) instead of one package at
	// a time. Exactly one of Run and RunProgram is set.
	RunProgram func(prog *Program) []Finding
}

// DefaultAnalyzers returns the full analyzer suite with the repo's
// production configuration.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		PinBalance(),
		ErrAudit(),
		Layering(DefaultLayeringConfig()),
		LockOrder(),
	}
}

// Run applies the analyzers to every package, filters suppressed findings,
// and returns the survivors sorted by position. Malformed suppression
// directives are reported as findings of the pseudo-analyzer "vetx", and so
// is any directive that suppressed nothing (it names only analyzers in the
// running set, yet no finding matched — dead suppressions rot).
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	// Suppressions are collected globally: program-level analyzers emit
	// findings across package boundaries, and unused-directive detection
	// must see the full run either way.
	sup := &suppressions{byLine: map[string]map[string]*directive{}}
	for _, pkg := range pkgs {
		out = append(out, sup.collect(pkg)...)
	}

	var programAnalyzers []*Analyzer
	for _, an := range analyzers {
		if an.RunProgram != nil {
			programAnalyzers = append(programAnalyzers, an)
			continue
		}
		for _, pkg := range pkgs {
			if an.NeedTypes && pkg.Info == nil {
				continue
			}
			for _, f := range an.Run(pkg) {
				if !sup.suppressed(an.Name, f.Pos) {
					out = append(out, f)
				}
			}
		}
	}
	if len(programAnalyzers) > 0 {
		prog := BuildProgram(pkgs)
		for _, an := range programAnalyzers {
			for _, f := range an.RunProgram(prog) {
				if !sup.suppressed(an.Name, f.Pos) {
					out = append(out, f)
				}
			}
		}
	}

	out = append(out, sup.unused(analyzers)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// ---------------------------------------------------------------------------
// Suppression directives

const ignoreDirective = "//vetx:ignore"

// directive is one parsed //vetx:ignore comment; used tracks whether it
// actually suppressed a finding this run.
type directive struct {
	pos   token.Position
	names map[string]bool // "all" suppresses every analyzer
	used  bool
}

type suppressions struct {
	// byLine maps file:line to the directives covering that line.
	byLine map[string]map[string]*directive
	all    []*directive
}

func (s *suppressions) suppressed(analyzer string, pos token.Position) bool {
	set := s.byLine[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)]
	if set == nil {
		return false
	}
	hit := false
	for _, d := range []*directive{set[analyzer], set["all"]} {
		if d != nil {
			d.used = true
			hit = true
		}
	}
	return hit
}

// unused reports directives that suppressed nothing. Only directives whose
// named analyzers were all part of this run are judged — a partial run
// (single-analyzer fixture tests, cmd/vetx with a subset) can't tell
// whether another analyzer would have matched. "all" directives are never
// reported; they are judged only by the full suite.
func (s *suppressions) unused(analyzers []*Analyzer) []Finding {
	running := map[string]bool{}
	for _, an := range analyzers {
		running[an.Name] = true
	}
	var out []Finding
	for _, d := range s.all {
		if d.used || d.names["all"] {
			continue
		}
		covered := true
		for n := range d.names {
			if !running[n] {
				covered = false
				break
			}
		}
		if covered {
			out = append(out, Finding{
				Analyzer: "vetx",
				Pos:      d.pos,
				Message:  "vetx:ignore directive suppresses nothing; remove it",
			})
		}
	}
	return out
}

// collect scans file comments for //vetx:ignore directives. A directive
// suppresses findings on its own line (trailing comment) and on the
// following line (standalone comment above the code). Malformed directives,
// and directives naming an analyzer the suite does not have, are returned
// as findings.
func (s *suppressions) collect(pkg *Package) []Finding {
	var malformed []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignoreDirective) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignoreDirective)
				names, reason, ok := strings.Cut(rest, "--")
				if !ok || strings.TrimSpace(reason) == "" {
					malformed = append(malformed, Finding{
						Analyzer: "vetx",
						Pos:      pos,
						Message:  "vetx:ignore directive without a justification (use //vetx:ignore <analyzer> -- <reason>)",
					})
					continue
				}
				set := map[string]bool{}
				for _, n := range strings.Split(names, ",") {
					if n = strings.TrimSpace(n); n == "" {
						continue
					}
					set[n] = true
					if n != "all" && !isAnalyzer(n) {
						malformed = append(malformed, Finding{
							Analyzer: "vetx",
							Pos:      pos,
							Message:  fmt.Sprintf("vetx:ignore directive names unknown analyzer %q", n),
						})
					}
				}
				if len(set) == 0 {
					malformed = append(malformed, Finding{
						Analyzer: "vetx",
						Pos:      pos,
						Message:  "vetx:ignore directive names no analyzer",
					})
					continue
				}
				d := &directive{pos: pos, names: set}
				s.all = append(s.all, d)
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := fmt.Sprintf("%s:%d", pos.Filename, line)
					if s.byLine[key] == nil {
						s.byLine[key] = map[string]*directive{}
					}
					for n := range set {
						s.byLine[key][n] = d
					}
				}
			}
		}
	}
	return malformed
}

// isAnalyzer reports whether the full suite has an analyzer called name.
func isAnalyzer(name string) bool {
	for _, an := range DefaultAnalyzers() {
		if an.Name == name {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Small AST helpers shared by analyzers

// exprString renders simple receiver expressions (identifiers and selector
// chains) to a stable key; anything more exotic renders positionally.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[" + exprString(x.Index) + "]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "()"
	case *ast.BasicLit:
		return x.Value
	default:
		return fmt.Sprintf("expr@%d", e.Pos())
	}
}

// isPanicCall reports whether the call is the builtin panic.
func isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// funcBodies yields every function body in the file — declarations and
// literals — exactly once each. Analyzers that do per-function flow
// analysis iterate these and must not descend into nested literals
// themselves.
func funcBodies(file *ast.File, fn func(body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Body)
			}
		case *ast.FuncLit:
			fn(d.Body)
		}
		return true
	})
}
