package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// DefaultWALOrderScope lists the packages whose functions touch durable
// files: the WAL and the checkpoint store, which seals segments and the
// manifest. (Matched as path-segment suffixes.)
var DefaultWALOrderScope = []string{
	"internal/wal", "internal/durable",
}

// WALOrder returns the walorder analyzer. Within the scope packages, any
// function that writes to a syncable file (a value whose method set has
// both Write and Sync — *os.File and the wal.File abstraction) and then
// reaches a Rename call must Sync the file first. Rename is the commit
// point of the write-temp/fsync/rename seal protocol; renaming a file with
// unflushed writes makes the "durable" artifact silently lose its tail on
// power failure.
//
// The check is lexical: events are taken in source order within one
// function body. A file passed as an argument to another call is treated
// as written (the callee may buffer into it).
func WALOrder(scope []string) *Analyzer {
	return &Analyzer{
		Name: "walorder",
		Doc:  "durable-file writes must be Synced before the Rename commit point",
		Run: func(prog *Program, report Reporter) error {
			return runWALOrder(prog, report, scope)
		},
	}
}

func runWALOrder(prog *Program, report Reporter, scope []string) error {
	for _, pkg := range prog.Pkgs {
		if !pathMatches(pkg.Path, scope) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkWALOrder(pkg, fd, report)
			}
		}
	}
	return nil
}

// syncable reports whether t's method set carries both Write and Sync.
func syncable(t types.Type) bool {
	if t == nil {
		return false
	}
	ms := types.NewMethodSet(t)
	if _, isIface := t.Underlying().(*types.Interface); !isIface {
		if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
			ms = types.NewMethodSet(types.NewPointer(t))
		}
	}
	var hasWrite, hasSync bool
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Write":
			hasWrite = true
		case "Sync":
			hasSync = true
		}
	}
	return hasWrite && hasSync
}

// fileObj resolves e to a local/parameter variable of syncable type.
func fileObj(pkg *Pkg, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pkg.Info.Uses[id]
	if obj == nil {
		obj = pkg.Info.Defs[id]
	}
	if v, ok := obj.(*types.Var); ok && syncable(v.Type()) {
		return obj
	}
	return nil
}

func checkWALOrder(pkg *Pkg, fd *ast.FuncDecl, report Reporter) {
	// dirty maps a syncable variable to the position of its latest
	// un-synced write.
	dirty := make(map[types.Object]token.Pos)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}

		// Method calls on a tracked file: Write* dirties, Sync cleans.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if obj := fileObj(pkg, sel.X); obj != nil {
				switch {
				case sel.Sel.Name == "Sync":
					delete(dirty, obj)
					return true
				case len(sel.Sel.Name) >= 5 && sel.Sel.Name[:5] == "Write":
					dirty[obj] = call.Pos()
					return true
				}
			}
		}

		// Rename while any file is dirty: the commit point precedes the
		// flush.
		if calleeName(call.Fun) == "Rename" {
			var names []string
			for obj := range dirty {
				names = append(names, obj.Name())
			}
			sort.Strings(names)
			for _, name := range names {
				report(call.Pos(), "%s: Rename reached with un-synced writes to %q; call %s.Sync() before renaming into place",
					fd.Name.Name, name, name)
			}
			return true
		}

		// A file handed to another call may be written through: treat it
		// as dirty from here on.
		for _, arg := range call.Args {
			if obj := fileObj(pkg, arg); obj != nil {
				dirty[obj] = call.Pos()
			}
		}
		return true
	})
}

// calleeName extracts the bare name of the called function.
func calleeName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.ParenExpr:
		return calleeName(f.X)
	}
	return ""
}
