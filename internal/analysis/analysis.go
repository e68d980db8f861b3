// Package analysis is tspdb's project-specific static-analysis suite: a
// small go/analysis-style framework (built on the standard library's
// go/ast and go/types, because this module takes no external
// dependencies) plus the six analyzers that machine-check the engine's
// cross-PR invariants — locking discipline, sentinel-error matching,
// hot-path allocation rules, WAL write/sync/rename ordering, obs metric
// registration hygiene and exported API without a caller.
//
// The cmd/tspdblint multichecker runs every analyzer over the module and
// exits non-zero on any finding; `go test ./internal/analysis/...` proves
// each analyzer against seeded-violation fixtures under testdata/src.
//
// A finding can be suppressed with a staticcheck-style directive on the
// flagged line or the line immediately above it:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory: an unexplained suppression is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Pkg is one type-checked main-module package.
type Pkg struct {
	Path  string
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the loaded set of packages an analyzer run sees. Analyzers
// receive the whole program, so cross-package invariants (sentinel
// coverage in server.StatusFor, metric-kind consistency across packages)
// need no fact-passing protocol.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Pkg
	Root string // the main module's directory
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reporter records findings for one analyzer; pos addresses the flagged
// source location.
type Reporter func(pos token.Pos, format string, args ...any)

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program, report Reporter) error
}

// All returns the full tspdblint suite in its production configuration.
func All() []*Analyzer {
	return []*Analyzer{
		LockCheck(),
		SentinelErr(DefaultSentinelScope, "server", "StatusFor"),
		HotPathAlloc(),
		WALOrder(DefaultWALOrderScope),
		ObsReg(),
		DeadAPI("bench"),
	}
}

// Run executes the analyzers over the program and returns the surviving
// diagnostics (sorted by position) plus the count of findings suppressed
// by //lint:ignore directives.
func (prog *Program) Run(analyzers []*Analyzer) ([]Diagnostic, int, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		report := func(pos token.Pos, format string, args ...any) {
			diags = append(diags, Diagnostic{
				Pos:      prog.Fset.Position(pos),
				Analyzer: a.Name,
				Message:  fmt.Sprintf(format, args...),
			})
		}
		if err := a.Run(prog, report); err != nil {
			return nil, 0, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	ignores := prog.collectIgnores()
	kept := diags[:0]
	suppressed := 0
	for _, d := range diags {
		if ignores.match(d) {
			suppressed++
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, suppressed, nil
}

// ignoreSet indexes //lint:ignore directives by file and line.
type ignoreSet map[string]map[int][]string // filename -> line -> analyzer names

// collectIgnores scans every comment for suppression directives. A
// directive covers findings on its own line and on the line below it
// (the "comment above the statement" form).
func (prog *Program) collectIgnores() ignoreSet {
	set := make(ignoreSet)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
					if !ok {
						continue
					}
					fields := strings.Fields(text)
					if len(fields) < 2 {
						continue // no reason given: directive is void
					}
					pos := prog.Fset.Position(c.Pos())
					lines := set[pos.Filename]
					if lines == nil {
						lines = make(map[int][]string)
						set[pos.Filename] = lines
					}
					names := strings.Split(fields[0], ",")
					lines[pos.Line] = append(lines[pos.Line], names...)
					lines[pos.Line+1] = append(lines[pos.Line+1], names...)
				}
			}
		}
	}
	return set
}

func (s ignoreSet) match(d Diagnostic) bool {
	for _, name := range s[d.Pos.Filename][d.Pos.Line] {
		if name == d.Analyzer || name == "all" {
			return true
		}
	}
	return false
}

// --- shared type helpers ------------------------------------------------

// isMutex reports whether t is sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// isSyncExempt reports whether a field of type t needs no mutex to touch:
// mutexes themselves, sync/atomic values, sync.Once/WaitGroup, and
// channels (which carry their own synchronisation).
func isSyncExempt(t types.Type) bool {
	if isMutex(t) {
		return true
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "sync/atomic":
		return true
	case "sync":
		return obj.Name() == "Once" || obj.Name() == "WaitGroup"
	}
	return false
}

// lockBearing reports whether copying a value of type t would copy a
// mutex: a struct (or array of structs) containing sync.Mutex/RWMutex at
// any nesting depth.
func lockBearing(t types.Type) bool {
	return lockBearingRec(t, make(map[types.Type]bool))
}

func lockBearingRec(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if isMutex(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if lockBearingRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return lockBearingRec(u.Elem(), seen)
	}
	return false
}

// deref unwraps one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// recvNamed resolves a method receiver expression type to its named base.
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// pathMatches reports whether an import path falls under any of the given
// suffix patterns (matched on whole path segments).
func pathMatches(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) || strings.Contains(path, "/"+s+"/") {
			return true
		}
	}
	return false
}

// exprString renders a (small) expression for use as a map key or in a
// message: selectors and identifiers come out as written.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	}
	return "<expr>"
}
