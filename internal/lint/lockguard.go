package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerLockGuard enforces the `// guarded by <mu>` field annotations used
// on shared mutable state: the memo shards behind the mapper and authblock
// caches, the service's flight table and admission gate, the result store,
// the event fanout and the sweep coordinator. A field carrying the
// annotation may only be accessed while the annotated mutex of the same
// struct value is held. The check is a statement-level abstract walk, not a
// full flow analysis: lock state is tracked per "base.mu" expression text,
// branches are merged by intersection, and a branch that terminates (early
// return after Unlock — the cache fast path) does not leak its lock state
// into the code after the branch. Deferred Unlocks hold to function exit.
// Function literals are scanned with an empty lock state, since they may
// run anywhere.
var AnalyzerLockGuard = &Analyzer{
	Name: "lockguard",
	Doc: "fields annotated `// guarded by <mu>` may only be accessed while the " +
		"annotated mutex of the same struct value is held on the same base expression",
	Run: runLockGuard,
}

// guardKey identifies an annotated field by struct type name and field name.
type guardKey struct {
	typeName string
	field    string
}

func runLockGuard(pass *Pass) {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return
	}
	s := &guardScanner{pass: pass, guards: guards}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				s.scanStmts(fn.Body.List, lockSet{})
			}
		}
	}
}

// collectGuards scans struct declarations for `guarded by <mu>` comments on
// fields and returns (struct, field) -> mutex field name.
func collectGuards(pass *Pass) map[guardKey]string {
	guards := map[guardKey]string{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardAnnotation(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					guards[guardKey{ts.Name.Name, name.Name}] = mu
				}
			}
			return true
		})
	}
	return guards
}

func guardAnnotation(field *ast.Field) string {
	for _, cg := range [2]*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, "guarded by "); ok {
				return strings.Fields(rest)[0]
			}
		}
	}
	return ""
}

// lockSet maps "base.mu" expression text to whether that mutex is held.
type lockSet map[string]bool

func (l lockSet) clone() lockSet {
	c := lockSet{}
	for k, v := range l {
		if v {
			c[k] = true
		}
	}
	return c
}

// intersect keeps only locks held in both sets.
func (l lockSet) intersect(other lockSet) {
	for k, v := range l {
		if v && !other[k] {
			delete(l, k)
		}
	}
}

func (l lockSet) replaceWith(other lockSet) {
	for k := range l {
		delete(l, k)
	}
	for k, v := range other {
		if v {
			l[k] = true
		}
	}
}

type guardScanner struct {
	pass   *Pass
	guards map[guardKey]string
}

func (s *guardScanner) scanStmts(stmts []ast.Stmt, held lockSet) {
	for _, st := range stmts {
		s.scanStmt(st, held)
	}
}

// scanStmt processes one statement, mutating held to the state after it.
func (s *guardScanner) scanStmt(st ast.Stmt, held lockSet) {
	switch st := st.(type) {
	case nil:
	case *ast.BlockStmt:
		s.scanStmts(st.List, held)
	case *ast.LabeledStmt:
		s.scanStmt(st.Stmt, held)
	case *ast.IfStmt:
		s.scanStmt(st.Init, held)
		s.scanNode(st.Cond, held)
		bodyHeld := held.clone()
		s.scanStmts(st.Body.List, bodyHeld)
		elseHeld := held.clone()
		elseTerm := false
		if st.Else != nil {
			s.scanStmt(st.Else, elseHeld)
			elseTerm = terminates(st.Else)
		}
		switch bodyTerm := terminates(st.Body); {
		case bodyTerm && elseTerm:
			// Both paths exit: code after the if is unreachable from here;
			// keep the pre-if state.
		case bodyTerm:
			held.replaceWith(elseHeld)
		case elseTerm:
			held.replaceWith(bodyHeld)
		default:
			bodyHeld.intersect(elseHeld)
			held.replaceWith(bodyHeld)
		}
	case *ast.ForStmt:
		s.scanStmt(st.Init, held)
		s.scanNode(st.Cond, held)
		bodyHeld := held.clone()
		s.scanStmts(st.Body.List, bodyHeld)
		s.scanStmt(st.Post, bodyHeld)
		held.intersect(bodyHeld)
	case *ast.RangeStmt:
		s.scanNode(st.X, held)
		bodyHeld := held.clone()
		s.scanStmts(st.Body.List, bodyHeld)
		held.intersect(bodyHeld)
	case *ast.SwitchStmt:
		s.scanStmt(st.Init, held)
		s.scanNode(st.Tag, held)
		s.scanClauses(st.Body, held)
	case *ast.TypeSwitchStmt:
		s.scanStmt(st.Init, held)
		s.scanStmt(st.Assign, held)
		s.scanClauses(st.Body, held)
	case *ast.SelectStmt:
		s.scanClauses(st.Body, held)
	case *ast.DeferStmt, *ast.GoStmt:
		// Arguments are evaluated now; a deferred/async Unlock does not
		// change the lexical lock state, and a function literal body runs at
		// an unknown time, so it is scanned with an empty state inside
		// scanNode. Lock/Unlock effects of the call itself are dropped.
		var call *ast.CallExpr
		if d, ok := st.(*ast.DeferStmt); ok {
			call = d.Call
		} else {
			call = st.(*ast.GoStmt).Call
		}
		for _, arg := range call.Args {
			s.scanNode(arg, held)
		}
		if fl, ok := unparen(call.Fun).(*ast.FuncLit); ok {
			s.scanStmts(fl.Body.List, lockSet{})
		}
	default:
		s.scanNode(st, held)
	}
}

// scanClauses merges case/comm clause states by intersection with the
// pre-switch state (a switch without a default may run no clause).
func (s *guardScanner) scanClauses(body *ast.BlockStmt, held lockSet) {
	merged := held.clone()
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm != nil {
				stmts = append([]ast.Stmt{cl.Comm}, cl.Body...)
			} else {
				stmts = cl.Body
			}
		}
		clauseHeld := held.clone()
		s.scanStmts(stmts, clauseHeld)
		if !stmtsTerminate(stmts) {
			merged.intersect(clauseHeld)
		}
	}
	held.replaceWith(merged)
}

// scanNode applies lock/unlock/access events found in a simple statement or
// expression, in position order. Function literal bodies are scanned
// separately with an empty lock state.
func (s *guardScanner) scanNode(n ast.Node, held lockSet) {
	if n == nil || isNilStmt(n) {
		return
	}
	type event struct {
		pos  token.Pos
		kind int // 0 lock, 1 unlock, 2 access
		id   string
		name string
	}
	var events []event
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			s.scanStmts(node.Body.List, lockSet{})
			return false
		case *ast.CallExpr:
			sel, ok := node.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var kind int
			switch sel.Sel.Name {
			case "Lock", "RLock":
				kind = 0
			case "Unlock", "RUnlock":
				kind = 1
			default:
				return true
			}
			muSel, ok := unparen(sel.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			events = append(events, event{
				pos: node.Pos(), kind: kind,
				id: types.ExprString(muSel.X) + "." + muSel.Sel.Name,
			})
		case *ast.SelectorExpr:
			key, ok := guardedField(s.pass, node, s.guards)
			if !ok {
				return true
			}
			events = append(events, event{
				pos: node.Pos(), kind: 2,
				id:   types.ExprString(node.X) + "." + s.guards[key],
				name: types.ExprString(node.X) + "." + key.field,
			})
		}
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	for _, ev := range events {
		switch ev.kind {
		case 0:
			held[ev.id] = true
		case 1:
			delete(held, ev.id)
		case 2:
			if !held[ev.id] {
				s.pass.Reportf(ev.pos, "%s is guarded but accessed without holding %s", ev.name, ev.id)
			}
		}
	}
}

func isNilStmt(n ast.Node) bool {
	switch n := n.(type) {
	case ast.Stmt:
		return n == nil
	case ast.Expr:
		return n == nil
	}
	return false
}

// terminates reports whether control cannot flow past the statement.
func terminates(st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return st.Tok == token.BREAK || st.Tok == token.CONTINUE || st.Tok == token.GOTO
	case *ast.BlockStmt:
		return stmtsTerminate(st.List)
	case *ast.LabeledStmt:
		return terminates(st.Stmt)
	case *ast.IfStmt:
		return st.Else != nil && terminates(st.Body) && terminates(st.Else)
	case *ast.ExprStmt:
		if call, ok := unparen(st.X).(*ast.CallExpr); ok {
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				return fun.Name == "panic"
			case *ast.SelectorExpr:
				name := types.ExprString(fun)
				return name == "os.Exit" || strings.HasPrefix(fun.Sel.Name, "Fatal")
			}
		}
	}
	return false
}

func stmtsTerminate(stmts []ast.Stmt) bool {
	return len(stmts) > 0 && terminates(stmts[len(stmts)-1])
}

// guardedField resolves sel to an annotated (struct, field) pair, if any.
func guardedField(pass *Pass, sel *ast.SelectorExpr, guards map[guardKey]string) (guardKey, bool) {
	t := pass.TypeOf(sel.X)
	if t == nil {
		return guardKey{}, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return guardKey{}, false
	}
	key := guardKey{named.Obj().Name(), sel.Sel.Name}
	_, ok = guards[key]
	return key, ok
}
