package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// LockCheck returns the lockcheck analyzer. It enforces the engine's
// locking discipline on every struct that embeds a sync.Mutex or
// sync.RWMutex field directly (storage.ProbTable, storage.DB, core.Engine,
// core.Stream, wal.Log, the obs registry internals, ...):
//
//  1. Guarded-field access: fields declared BELOW the struct's (first)
//     mutex may only be touched by methods that acquire the mutex
//     (directly, or via a helper whose name contains "lock", like
//     ProbTable.rlockLoaded). Fields ABOVE the mutex are construction-time
//     immutable: reading them unlocked is fine, but writing them from a
//     method is flagged.
//  2. Write-under-read-lock: a method that only ever RLocks must not
//     write a guarded field.
//  3. Leaked locks: a return statement lexically between a non-deferred
//     Lock/RLock and its Unlock leaks the lock on that path.
//  4. Copied locks: parameters, results, receivers and range/deref copies
//     of lock-bearing struct values fork the mutex state.
//
// Exemptions, in the spirit of "the invariant must be written down":
// methods whose name contains "lock"/"Locked", and methods whose doc (or
// immediately preceding) comment states the contract — "caller holds",
// "no lock", "immutable", "unshared" and similar phrasings all match.
func LockCheck() *Analyzer {
	return &Analyzer{
		Name: "lockcheck",
		Doc:  "mutex-guarded fields must be accessed under their mutex; no leaked or copied locks",
		Run:  runLockCheck,
	}
}

var lockExemptRe = regexp.MustCompile(`(?i)caller (must )?holds?|holds? .*lock|no lock|lock(-| )free|not locked|unshared|not (yet )?shared|immutable`)

// structLocks describes one lock-bearing struct: its mutex fields and the
// set of fields they guard.
type structLocks struct {
	mutexes []string
	guarded map[string]bool
}

// lockCheckState carries the per-package tables each file walk needs.
type lockCheckState struct {
	pkg    *Pkg
	report Reporter
	locks  map[*types.Named]*structLocks
}

func runLockCheck(prog *Program, report Reporter) error {
	for _, pkg := range prog.Pkgs {
		st := &lockCheckState{pkg: pkg, report: report, locks: structInfo(pkg)}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				st.checkSignatureCopies(fd)
				st.checkValueCopies(fd.Body)
				if !strings.Contains(strings.ToLower(fd.Name.Name), "lock") {
					st.checkLeaks(fd.Body)
				}
				st.checkGuardedAccess(f, fd)
			}
		}
	}
	return nil
}

// structInfo maps each named struct type declared in pkg that has a direct
// mutex field to its lock layout. The positional rule: fields after the
// first mutex are guarded; fields before it are immutable-by-construction.
func structInfo(pkg *Pkg) map[*types.Named]*structLocks {
	out := make(map[*types.Named]*structLocks)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			stype, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj, ok := pkg.Info.Defs[ts.Name]
			if !ok {
				return true
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				return true
			}
			info := &structLocks{guarded: make(map[string]bool)}
			seenMutex := false
			for _, fld := range stype.Fields.List {
				ftype := pkg.Info.Types[fld.Type].Type
				if ftype == nil {
					continue
				}
				if isMutex(ftype) {
					seenMutex = true
					for _, name := range fld.Names {
						info.mutexes = append(info.mutexes, name.Name)
					}
					continue
				}
				if !seenMutex || isSyncExempt(ftype) {
					continue
				}
				for _, name := range fld.Names {
					info.guarded[name.Name] = true
				}
			}
			if len(info.mutexes) > 0 {
				out[named] = info
			}
			return true
		})
	}
	return out
}

// --- copied locks -------------------------------------------------------

func (st *lockCheckState) checkSignatureCopies(fd *ast.FuncDecl) {
	check := func(fields *ast.FieldList, what string) {
		if fields == nil {
			return
		}
		for _, fld := range fields.List {
			t := st.pkg.Info.Types[fld.Type].Type
			if t != nil && lockBearing(t) {
				st.report(fld.Pos(), "%s %s passes a lock (%s) by value", fd.Name.Name, what, t)
			}
		}
	}
	check(fd.Recv, "receiver")
	check(fd.Type.Params, "parameter")
	check(fd.Type.Results, "result")
}

func (st *lockCheckState) checkValueCopies(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n.Value != nil {
				// A := range clause defines its value ident, so the type
				// lives in Defs rather than Types.
				var t types.Type
				if id, ok := n.Value.(*ast.Ident); ok {
					if obj := st.pkg.Info.Defs[id]; obj != nil {
						t = obj.Type()
					}
				}
				if t == nil {
					t = st.pkg.Info.Types[n.Value].Type
				}
				if t != nil && lockBearing(t) {
					st.report(n.Value.Pos(), "range copies a lock (%s) by value; iterate by index", t)
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				star, ok := rhs.(*ast.StarExpr)
				if !ok {
					continue
				}
				if t := st.pkg.Info.Types[star].Type; t != nil && lockBearing(t) {
					st.report(rhs.Pos(), "dereference copies a lock (%s) by value", t)
				}
			}
		}
		return true
	})
}

// --- leaked locks -------------------------------------------------------

// mutexCall classifies a statement as a Lock/Unlock call on a mutex-typed
// selector, returning the receiver expression key.
func (st *lockCheckState) mutexCall(call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	t := st.pkg.Info.Types[sel.X].Type
	if t == nil || !isMutex(deref(t)) {
		return "", "", false
	}
	return exprString(sel.X), sel.Sel.Name, true
}

// checkLeaks walks the function body tracking which mutexes are held with
// no deferred unlock pending; a return while one is held is a leak on
// that path. Branch bodies work on copies of the held set, so an unlock
// inside a branch stays local to it — a cheap, conservative
// approximation of real control flow that matches how the engine's
// lock/unlock pairs are actually written.
func (st *lockCheckState) checkLeaks(body *ast.BlockStmt) {
	held := make(map[string]token.Pos)
	st.leakStmts(body.List, held)
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (st *lockCheckState) leakStmts(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		st.leakStmt(s, held)
	}
}

func (st *lockCheckState) leakStmt(s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, method, ok := st.mutexCall(call); ok {
				switch method {
				case "Lock", "RLock":
					held[key] = call.Pos()
				case "Unlock", "RUnlock":
					delete(held, key)
				}
			}
			if lit, ok := call.Fun.(*ast.FuncLit); ok {
				st.checkLeaks(lit.Body)
			}
		}
	case *ast.DeferStmt:
		if key, method, ok := st.mutexCall(s.Call); ok && (method == "Unlock" || method == "RUnlock") {
			delete(held, key)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			st.checkLeaks(lit.Body)
		}
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			st.checkLeaks(lit.Body)
		}
	case *ast.ReturnStmt:
		for key, pos := range held {
			st.report(s.Pos(), "return leaks %s held since %s (unlock before returning or defer the unlock)",
				key+".Lock", st.pkg.Fset.Position(pos))
		}
	case *ast.BlockStmt:
		st.leakStmts(s.List, held)
	case *ast.LabeledStmt:
		st.leakStmt(s.Stmt, held)
	case *ast.IfStmt:
		st.leakStmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			st.leakStmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		st.leakStmts(s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		st.leakStmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				st.leakStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				st.leakStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				st.leakStmts(cc.Body, copyHeld(held))
			}
		}
	}
}

// --- guarded-field access ----------------------------------------------

type acquireLevel int

const (
	acquireNone acquireLevel = iota
	acquireRead
	acquireWrite
)

// checkGuardedAccess verifies one method against its receiver's lock
// layout.
func (st *lockCheckState) checkGuardedAccess(file *ast.File, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return
	}
	rt := st.pkg.Info.Types[fd.Recv.List[0].Type].Type
	if rt == nil {
		return
	}
	named := recvNamed(rt)
	if named == nil {
		return
	}
	info, ok := st.locks[named]
	if !ok {
		return
	}
	if strings.Contains(strings.ToLower(fd.Name.Name), "lock") {
		return // lock-management helper (rlockLoaded, appendLocked, ...)
	}
	if st.commentExempt(file, fd) {
		return
	}
	var recvName string
	if len(fd.Recv.List[0].Names) > 0 {
		recvName = fd.Recv.List[0].Names[0].Name
	}
	if recvName == "" || recvName == "_" {
		return
	}

	level := st.acquisitionLevel(fd, recvName, info)
	mutexName := info.mutexes[0]

	// Selectors inside write targets are handled by the write check; keep
	// the read check off them so one assignment yields one finding.
	inWrite := make(map[ast.Node]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			targets = n.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{n.X}
		default:
			return true
		}
		for _, t := range targets {
			ast.Inspect(t, func(m ast.Node) bool {
				if _, ok := m.(*ast.SelectorExpr); ok {
					inWrite[m] = true
				}
				return true
			})
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				st.checkFieldWrite(lhs, recvName, mutexName, fd, info, level)
			}
		case *ast.IncDecStmt:
			st.checkFieldWrite(n.X, recvName, mutexName, fd, info, level)
		case *ast.SelectorExpr:
			if inWrite[n] {
				return true
			}
			if field, ok := st.recvField(n, recvName); ok && info.guarded[field] && level == acquireNone {
				st.report(n.Pos(), "%s reads %s.%s without holding %s.%s",
					fd.Name.Name, recvName, field, recvName, mutexName)
				return false
			}
		}
		return true
	})
}

// checkFieldWrite flags writes through the receiver that violate the lock
// layout: guarded fields need the write lock; unguarded (above-mutex)
// fields are immutable after construction.
func (st *lockCheckState) checkFieldWrite(lhs ast.Expr, recvName, mutexName string, fd *ast.FuncDecl, info *structLocks, level acquireLevel) {
	// Peel nested selectors/indexes so `e.cfg.Parallelism = n` and
	// `p.groups[i].Len++` attribute to the receiver's own field.
	base := lhs
	var field string
	for {
		switch b := base.(type) {
		case *ast.SelectorExpr:
			if f, ok := st.recvField(b, recvName); ok {
				field = f
			}
			if field != "" {
				goto resolved
			}
			base = b.X
		case *ast.IndexExpr:
			base = b.X
		case *ast.ParenExpr:
			base = b.X
		case *ast.StarExpr:
			base = b.X
		default:
			return
		}
	}
resolved:
	if info.guarded[field] {
		switch level {
		case acquireNone:
			st.report(lhs.Pos(), "%s writes %s.%s without holding %s.%s",
				fd.Name.Name, recvName, field, recvName, mutexName)
		case acquireRead:
			st.report(lhs.Pos(), "%s writes %s.%s under a read lock; writes need %s.%s.Lock",
				fd.Name.Name, recvName, field, recvName, mutexName)
		}
		return
	}
	if level == acquireNone && !isFieldSyncExempt(st.pkg, lhs) {
		st.report(lhs.Pos(), "%s writes %s.%s, declared above %s.%s and therefore immutable after construction",
			fd.Name.Name, recvName, field, recvName, mutexName)
	}
}

// recvField resolves sel to a direct field selection recv.<field>.
func (st *lockCheckState) recvField(sel *ast.SelectorExpr, recvName string) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != recvName {
		return "", false
	}
	if s, ok := st.pkg.Info.Selections[sel]; !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	return sel.Sel.Name, true
}

// isFieldSyncExempt reports whether the written expression is itself a
// synchronisation primitive (atomic field, mutex) whose mutation needs no
// guarding.
func isFieldSyncExempt(pkg *Pkg, e ast.Expr) bool {
	t := pkg.Info.Types[e].Type
	return t != nil && isSyncExempt(t)
}

// acquisitionLevel scans the body for acquisitions of the receiver's own
// mutex: recv.mu.Lock() (write), recv.mu.RLock() (read), or a call to a
// receiver method whose name contains "lock" (a helper like rlockLoaded
// that encapsulates the acquisition — treated as read-level).
func (st *lockCheckState) acquisitionLevel(fd *ast.FuncDecl, recvName string, info *structLocks) acquireLevel {
	level := acquireNone
	isOwnMutex := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != recvName {
			return false
		}
		for _, m := range info.mutexes {
			if sel.Sel.Name == m {
				return true
			}
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock":
			if isOwnMutex(sel.X) {
				level = acquireWrite
			}
		case "RLock":
			if isOwnMutex(sel.X) && level < acquireRead {
				level = acquireRead
			}
		default:
			// recv.rlockLoaded() and friends.
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == recvName &&
				strings.Contains(strings.ToLower(sel.Sel.Name), "lock") {
				if level < acquireRead {
					level = acquireRead
				}
			}
		}
		return true
	})
	return level
}

// commentExempt reports whether the method's doc comment (or a comment
// ending on the line just above the declaration) states a locking
// contract that exempts it.
func (st *lockCheckState) commentExempt(file *ast.File, fd *ast.FuncDecl) bool {
	if fd.Doc != nil && lockExemptRe.MatchString(fd.Doc.Text()) {
		return true
	}
	declLine := st.pkg.Fset.Position(fd.Pos()).Line
	for _, cg := range file.Comments {
		end := st.pkg.Fset.Position(cg.End()).Line
		if end == declLine-1 && lockExemptRe.MatchString(cg.Text()) {
			return true
		}
	}
	return false
}
