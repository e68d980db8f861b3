package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPathAlloc returns the hotpathalloc analyzer: the static complement of
// the benchgate allocs/op gate. Functions annotated with a
//
//	//tspdb:kernel
//
// line in their doc comment (the columnar batch kernels in
// probdb/columnar.go, the sigma-cache lookup ladder, the GARCH likelihood
// pass) must stay free of the constructs that put allocations or dynamic
// dispatch on the scan path:
//
//   - calls into fmt (every fmt call allocates; hoist error values)
//   - implicit or explicit conversions of concrete values to interface
//     types (boxing)
//   - closures that capture a loop variable (forces the capture — and in
//     a hot loop, the closure itself — to escape)
//   - append to a slice that is not visibly pre-allocated: the base must
//     be a parameter (caller-sized) or a local made with an explicit
//     length/capacity in the same function (either `x := make(T, n)` or
//     `var x = make(T, n)`)
//
// Worker-pool kernels (e.g. the chunked scan runtime in probdb) pass: a
// goroutine closure that references only pool state declared once outside
// any loop captures no loop variable, so the launch loop's `go func() {...}`
// is allowed as long as per-chunk values are read off a shared cursor or
// passed as arguments rather than captured from the range clause.
func HotPathAlloc() *Analyzer {
	return &Analyzer{
		Name: "hotpathalloc",
		Doc:  "//tspdb:kernel functions must not box, call fmt, capture loop vars, or append unpreallocated",
		Run:  runHotPathAlloc,
	}
}

const kernelDirective = "//tspdb:kernel"

func runHotPathAlloc(prog *Program, report Reporter) error {
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isKernel(fd) {
					continue
				}
				checkKernel(pkg, fd, report)
			}
		}
	}
	return nil
}

func isKernel(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == kernelDirective {
			return true
		}
	}
	return false
}

func checkKernel(pkg *Pkg, fd *ast.FuncDecl, report Reporter) {
	params := make(map[types.Object]bool)
	for _, fld := range fd.Type.Params.List {
		for _, name := range fld.Names {
			if obj := pkg.Info.Defs[name]; obj != nil {
				params[obj] = true
			}
		}
	}
	loopVars := collectLoopVars(pkg, fd.Body)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkKernelCall(pkg, fd, n, params, report)
		case *ast.FuncLit:
			checkLoopCapture(pkg, n, loopVars, report)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) {
					checkIfaceAssign(pkg, lhs, n.Rhs[i], report)
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					checkIfaceConv(pkg, pkg.Info.Types[n.Type].Type, v, report)
				}
			}
		case *ast.ReturnStmt:
			sig, ok := pkg.Info.Defs[fd.Name].Type().(*types.Signature)
			if !ok {
				return true
			}
			res := sig.Results()
			if len(n.Results) == res.Len() {
				for i, r := range n.Results {
					checkIfaceConv(pkg, res.At(i).Type(), r, report)
				}
			}
		}
		return true
	})
}

// checkKernelCall flags fmt calls, boxing at call boundaries, and
// unpreallocated appends.
func checkKernelCall(pkg *Pkg, fd *ast.FuncDecl, call *ast.CallExpr, params map[types.Object]bool, report Reporter) {
	// fmt.* anywhere in the kernel.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				report(call.Pos(), "kernel %s calls fmt.%s; fmt allocates — hoist the value out of the kernel",
					fd.Name.Name, sel.Sel.Name)
				return
			}
		}
	}

	// append: base must be a parameter or a make(...) with explicit size.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
			checkAppend(pkg, fd, call, params, report)
			return
		}
	}

	// Explicit conversion to an interface type: T(x) where T is an
	// interface and x concrete.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		checkIfaceConv(pkg, tv.Type, call.Args[0], report)
		return
	}

	// Implicit boxing of arguments into interface parameters.
	sig := callSignature(pkg, call)
	if sig == nil {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if s, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if pt != nil {
			checkIfaceConv(pkg, pt, arg, report)
		}
	}
}

func callSignature(pkg *Pkg, call *ast.CallExpr) *types.Signature {
	t := pkg.Info.Types[call.Fun].Type
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// checkIfaceConv reports a concrete-to-interface conversion of expr into
// target.
func checkIfaceConv(pkg *Pkg, target types.Type, expr ast.Expr, report Reporter) {
	if target == nil {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() {
		return
	}
	if _, ok := tv.Type.Underlying().(*types.Interface); ok {
		return // interface-to-interface: no boxing of a concrete value
	}
	report(expr.Pos(), "concrete value (%s) converted to interface %s: boxing allocates on the hot path",
		tv.Type, target)
}

func checkIfaceAssign(pkg *Pkg, lhs, rhs ast.Expr, report Reporter) {
	lt := pkg.Info.Types[lhs].Type
	if lt == nil {
		return
	}
	checkIfaceConv(pkg, lt, rhs, report)
}

// checkAppend requires append's base slice to be caller-allocated (a
// parameter, possibly resliced) or locally made with explicit sizing.
func checkAppend(pkg *Pkg, fd *ast.FuncDecl, call *ast.CallExpr, params map[types.Object]bool, report Reporter) {
	base := call.Args[0]
	for {
		switch b := base.(type) {
		case *ast.ParenExpr:
			base = b.X
		case *ast.SliceExpr:
			base = b.X
		default:
			goto peeled
		}
	}
peeled:
	id, ok := base.(*ast.Ident)
	if !ok {
		report(call.Pos(), "kernel %s appends to %s, which is not visibly pre-allocated", fd.Name.Name, exprString(base))
		return
	}
	obj := pkg.Info.Uses[id]
	if obj == nil {
		obj = pkg.Info.Defs[id]
	}
	if params[obj] {
		return // caller-sized buffer
	}
	if madeWithSize(pkg, fd, obj) {
		return
	}
	report(call.Pos(), "kernel %s appends to %q without a visible make(..., size) in this function: growth reallocates on the hot path",
		fd.Name.Name, id.Name)
}

// madeWithSize looks for `x := make(T, n)` / `make(T, 0, c)` or the var
// form `var x = make(T, n)` defining obj inside fd.
func madeWithSize(pkg *Pkg, fd *ast.FuncDecl, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || pkg.Info.Defs[id] != obj && pkg.Info.Uses[id] != obj {
					continue
				}
				if i < len(n.Rhs) && makesWithSize(pkg, n.Rhs[i]) {
					found = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pkg.Info.Defs[name] != obj {
					continue
				}
				if i < len(n.Values) && makesWithSize(pkg, n.Values[i]) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// makesWithSize reports whether e is a make(T, n[, c]) call with an
// explicit size argument.
func makesWithSize(pkg *Pkg, e ast.Expr) bool {
	mk, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	mid, ok := mk.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pkg.Info.Uses[mid].(*types.Builtin)
	return ok && b.Name() == "make" && len(mk.Args) >= 2
}

// collectLoopVars gathers the objects declared by for/range clauses.
func collectLoopVars(pkg *Pkg, body *ast.BlockStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	note := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := pkg.Info.Defs[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			note(n.Key)
			if n.Value != nil {
				note(n.Value)
			}
		case *ast.ForStmt:
			if init, ok := n.Init.(*ast.AssignStmt); ok {
				for _, lhs := range init.Lhs {
					note(lhs)
				}
			}
		}
		return true
	})
	return vars
}

// checkLoopCapture flags closures that reference a loop variable declared
// outside themselves.
func checkLoopCapture(pkg *Pkg, lit *ast.FuncLit, loopVars map[types.Object]bool, report Reporter) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil || !loopVars[obj] {
			return true
		}
		if obj.Pos() > lit.Pos() && obj.Pos() < lit.End() {
			return true // declared inside the closure itself
		}
		report(id.Pos(), "closure captures loop variable %q: the capture escapes per iteration", id.Name)
		return true
	})
}
