package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// DeadAPI returns the deadapi analyzer. An exported func, method, var,
// const or type of a package under internal/, or of the package at the
// root of an internal/ tree (the module's root package, a facade over
// internal/), is a finding when no non-test file of the main module, nor of
// the module in directory extra (relative to the main module's root),
// refers to it from outside its own declaration. Uses always come from the
// whole of both modules, so a run over a subset reports nothing a full run
// would not. Exempt are methods implementing an interface the program
// declares or imports, and every symbol of a package no non-test package
// imports (test support).
func DeadAPI(extra string) *Analyzer {
	return &Analyzer{
		Name: "deadapi",
		Doc:  "exported internal/ and root-package symbols need a non-test reference in the module or " + extra,
		Run: func(prog *Program, report Reporter) error {
			return runDeadAPI(prog, report, extra)
		},
	}
}

// apiKey names a package-level symbol, or a method by its receiver's base
// type, the same way whichever type-checker produced the object.
type apiKey struct{ pkg, recv, name string }

func runDeadAPI(prog *Program, report Reporter, extra string) error {
	full, err := Load(prog.Root)
	if err != nil {
		return err
	}
	ext, err := Load(filepath.Join(prog.Root, extra))
	if err != nil {
		return err
	}

	used := make(map[apiKey]bool)
	imported := make(map[string]bool)
	facades := make(map[string]bool)
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	u := &universe{pkgs: make(map[string]*types.Package), ifaces: map[string][]*types.Interface{"Error": {errIface}}}
	for _, p := range []*Program{full, ext} {
		for _, pkg := range p.Pkgs {
			collectUses(pkg, used)
			if i := strings.LastIndex(pkg.Path+"/", "/internal/"); i > 0 {
				facades[pkg.Path[:i]] = true
			}
			for _, imp := range pkg.Types.Imports() {
				imported[imp.Path()] = true
			}
			u.add(pkg.Types)
		}
	}

	for _, pkg := range prog.Pkgs {
		if !(pathMatches(pkg.Path, []string{"internal"}) || facades[pkg.Path]) || !imported[pkg.Path] {
			continue
		}
		for id, obj := range pkg.Info.Defs {
			k, ok := keyOf(obj)
			if !ok || !id.IsExported() || used[k] {
				continue
			}
			name := pkg.Name + "." + k.name
			if k.recv != "" {
				if u.implementsAny(k) {
					continue
				}
				name = pkg.Name + "." + k.recv + "." + k.name
			}
			report(id.Pos(), "%s has no reference from a non-test file of the module or %s/", name, extra)
		}
	}
	return nil
}

// collectUses records every symbol pkg's files refer to, except a
// declaration's references to itself: a method's receiver type, a
// recursive call.
func collectUses(pkg *Pkg, used map[apiKey]bool) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			var self types.Object
			var recv *ast.FieldList
			if fd, ok := d.(*ast.FuncDecl); ok {
				self, recv = pkg.Info.Defs[fd.Name], fd.Recv
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FieldList); ok && fl == recv {
					return false
				}
				if id, ok := n.(*ast.Ident); ok {
					if obj := pkg.Info.Uses[id]; obj != self {
						if k, ok := keyOf(obj); ok {
							used[k] = true
						}
					}
				}
				return true
			})
		}
	}
}

// keyOf names obj if it is a package-level symbol or a concrete method.
func keyOf(obj types.Object) (apiKey, bool) {
	if obj == nil || obj.Pkg() == nil {
		return apiKey{}, false
	}
	k := apiKey{pkg: obj.Pkg().Path(), name: obj.Name()}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Type().(*types.Signature).Recv(); recv != nil {
			named := recvNamed(recv.Type())
			if named == nil || types.IsInterface(named) {
				return apiKey{}, false
			}
			k.recv = named.Origin().Obj().Name()
			return k, true
		}
	}
	switch obj.(type) {
	case *types.Func, *types.TypeName, *types.Var, *types.Const:
		// Not a local, a field or a parameter.
		return k, obj.Pkg().Scope().Lookup(obj.Name()) == obj
	}
	return apiKey{}, false
}

// universe indexes the packages the loads reached, by path, and their
// named interfaces by method name. The module's load is added first, so a
// path resolves to its types and a receiver is tested against interfaces
// of the same load: types of two loads never implement each other's
// interfaces unless every type in the method signatures is basic.
type universe struct {
	pkgs   map[string]*types.Package
	ifaces map[string][]*types.Interface
}

// add indexes the non-generic named interfaces of p and of everything p
// imports.
func (u *universe) add(p *types.Package) {
	if u.pkgs[p.Path()] != nil {
		return
	}
	u.pkgs[p.Path()] = p
	for _, name := range p.Scope().Names() {
		if it := plainNamed(p.Scope().Lookup(name)); it != nil && types.IsInterface(it) {
			iface := it.Underlying().(*types.Interface)
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i).Name()
				u.ifaces[m] = append(u.ifaces[m], iface)
			}
		}
	}
	for _, imp := range p.Imports() {
		u.add(imp)
	}
}

// implementsAny reports whether k's receiver type, as a value or a
// pointer, implements an interface that has a method named k.
func (u *universe) implementsAny(k apiKey) bool {
	p := u.pkgs[k.pkg]
	if p == nil {
		return false
	}
	t := plainNamed(p.Scope().Lookup(k.recv))
	for _, it := range u.ifaces[k.name] {
		if t != nil && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return false
}

// plainNamed returns the non-generic named type obj declares, or nil.
func plainNamed(obj types.Object) *types.Named {
	if tn, ok := obj.(*types.TypeName); ok {
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
			return named
		}
	}
	return nil
}
