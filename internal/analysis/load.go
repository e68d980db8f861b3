package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string // path to the package's export data, from -export
	Standard   bool
	GoFiles    []string
	Module     *struct {
		Path string
		Dir  string
		Main bool
	}
	Error *struct {
		Err string
	}
}

// Load builds a type-checked Program for the packages matched by patterns,
// resolved relative to dir. It shells out to `go list -e -export -deps
// -json`, parses the main-module packages from source, and type-checks them
// against compiler export data for everything else — a self-contained
// (stdlib-only) stand-in for golang.org/x/tools/go/packages, which this
// module deliberately does not depend on.
//
// Only packages of the main module (the one rooted at dir) appear in
// Program.Pkgs; dependencies exist solely as type information. Test files
// are not loaded: the lint surface is the shipping source.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}

	var listed []*listPkg
	byPath := make(map[string]*listPkg)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPkg)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		listed = append(listed, lp)
		byPath[lp.ImportPath] = lp
	}

	prog := &Program{Fset: token.NewFileSet()}
	local := make(map[string]*types.Package)
	imp := &progImporter{
		local: local,
		gc:    importer.ForCompiler(prog.Fset, "gc", gcLookup(byPath)),
	}
	sizes := types.SizesFor("gc", runtime.GOARCH)

	// -deps lists packages in depth-first post-order: every dependency
	// precedes its importers, so one forward pass type-checks cleanly.
	for _, lp := range listed {
		if lp.Module == nil || !lp.Module.Main || lp.Standard {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg, err := typecheck(prog.Fset, lp, imp, sizes)
		if err != nil {
			return nil, err
		}
		local[lp.ImportPath] = pkg.Types
		prog.Pkgs = append(prog.Pkgs, pkg)
		prog.Root = lp.Module.Dir
	}
	if len(prog.Pkgs) == 0 {
		return nil, fmt.Errorf("analysis: no main-module packages matched %v in %s", patterns, dir)
	}
	return prog, nil
}

// typecheck parses and type-checks one main-module package from source.
func typecheck(fset *token.FileSet, lp *listPkg, imp types.Importer, sizes types.Sizes) (*Pkg, error) {
	pkg := &Pkg{
		Path: lp.ImportPath,
		Name: lp.Name,
		Dir:  lp.Dir,
		Fset: fset,
	}
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp, Sizes: sizes}
	tpkg, err := conf.Check(lp.ImportPath, fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", lp.ImportPath, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}

// progImporter resolves imports during type-checking: main-module packages
// come from the source-checked set, everything else from gc export data.
type progImporter struct {
	local map[string]*types.Package
	gc    types.Importer
}

func (i *progImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.local[path]; ok {
		return p, nil
	}
	return i.gc.Import(path)
}

// gcLookup feeds the gc importer the export-data files `go list -export`
// reported, covering the transitive dependency closure.
func gcLookup(byPath map[string]*listPkg) func(path string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		lp, ok := byPath[path]
		if !ok || lp.Export == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(lp.Export)
	}
}
