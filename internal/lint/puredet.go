package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerPureDet guards the determinism of everything a cached entry point
// can reach. The persistent store (and the in-memory tiers above it) serve a
// result computed once to every later identical request — across processes,
// machines and restarts — so any wall-clock read, environment read, global
// randomness or order-escaping map walk on a cached path bakes one process's
// accident into everyone's answer. The check is interprocedural: the seed
// entry points below are closed over the call graph, and every reached
// module function is scanned. Known value-transparent sinks (the store
// itself, observability) are allowlisted and pruned from the traversal.
var AnalyzerPureDet = &Analyzer{
	Name: "puredet",
	Doc: "functions reachable from cached entry points (mapper.SearchCachedCtx, " +
		"authblock.OptimalStoredCtx, core.ScheduleNetworkCtx) must not " +
		"call time.Now/time.Since, read the environment, use global or non-request-seeded " +
		"randomness, leak map iteration order into results, or update a package-level " +
		"sync/atomic variable (count per request through the observer instead)",
	RunModule: runPureDet,
}

// puredetSeeds names the cached entry points, by package path suffix and
// function name. A listed package missing the named function is a finding
// (the seed table must rot loudly, not silently); an absent package is
// skipped, so fixture runs and partial lints stay quiet.
var puredetSeeds = []struct{ pkg, fn string }{
	{"internal/mapper", "SearchCachedCtx"},
	{"internal/mapper", "SearchLowerBound"},
	{"internal/authblock", "OptimalStoredCtx"},
	{"internal/core", "ScheduleNetworkCtx"},
	{"internal/dse", "Sweep"},
	{"internal/service", "ScheduleBody"},
	{"internal/service", "SweepBody"},
	{"internal/service", "AuthBlockBody"},
	{"testdata/src/puredet", "CachedEntry"},
}

// puredetAllow lists known-benign sinks pruned from the traversal: results
// never flow back out of these, so their internals (file mtimes in the
// store, logging in obs) cannot reach a cached answer. fn "*" allowlists the
// whole package.
var puredetAllow = []struct{ pkg, fn string }{
	{"internal/store", "*"}, // persistence below the computed result
	{"internal/obs", "*"},   // observability; values only flow in
	{"testdata/src/puredet", "allowedSink"},
}

func runPureDet(mp *ModulePass) {
	var seeds []*types.Func
	for _, s := range puredetSeeds {
		pkg := mp.PkgBySuffix(s.pkg)
		if pkg == nil {
			continue
		}
		fns := mp.Graph.FuncsNamed(pkg, s.fn)
		if len(fns) == 0 {
			mp.Reportf(pkg.Files[0].Name.Pos(),
				"puredet seed %s.%s not found; update the seed table in internal/lint/puredet.go", s.pkg, s.fn)
			continue
		}
		seeds = append(seeds, fns...)
	}
	witness := reachableSkipping(mp.Graph, seeds, puredetAllowed)
	fns := make([]*types.Func, 0, len(witness))
	for fn := range witness {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	for _, fn := range fns {
		if node := mp.Graph.Nodes[fn]; node != nil {
			checkPureFunc(mp, node, witness[fn])
		}
	}
}

// puredetAllowed reports whether fn is in the allowlist.
func puredetAllowed(fn *types.Func) bool {
	p := fn.Pkg()
	if p == nil {
		return false
	}
	for _, a := range puredetAllow {
		if p.Path() != a.pkg && !strings.HasSuffix(p.Path(), "/"+a.pkg) {
			continue
		}
		if a.fn == "*" || a.fn == fn.Name() {
			return true
		}
	}
	return false
}

// reachableSkipping is ReachableFrom with traversal pruned at functions the
// skip predicate accepts: they are neither scanned nor followed.
func reachableSkipping(g *Graph, seeds []*types.Func, skip func(*types.Func) bool) map[*types.Func]*types.Func {
	witness := map[*types.Func]*types.Func{}
	var queue []*types.Func
	for _, s := range seeds {
		if s == nil || skip(s) {
			continue
		}
		if _, ok := witness[s]; ok {
			continue
		}
		witness[s] = s
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := g.Nodes[fn]
		if node == nil {
			continue
		}
		for _, c := range node.Calls {
			if skip(c.Callee) {
				continue
			}
			if _, ok := witness[c.Callee]; ok {
				continue
			}
			witness[c.Callee] = witness[fn]
			queue = append(queue, c.Callee)
		}
	}
	return witness
}

// checkPureFunc scans one reached function for determinism violations,
// naming the seed whose closure reached it.
func checkPureFunc(mp *ModulePass, node *FuncNode, seed *types.Func) {
	from := seed.FullName()
	for _, c := range node.Calls {
		callee := c.Callee
		cp := callee.Pkg()
		if cp == nil {
			continue
		}
		sig, ok := callee.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			continue
		}
		name := callee.Name()
		switch cp.Path() {
		case "time":
			if name == "Now" || name == "Since" {
				mp.Reportf(c.Pos,
					"calls time.%s on a cached path (reachable from %s); cached results must not depend on wall-clock", name, from)
			}
		case "os":
			if name == "Getenv" || name == "LookupEnv" || name == "Environ" {
				mp.Reportf(c.Pos,
					"reads os.%s on a cached path (reachable from %s); the environment must not influence cached results", name, from)
			}
		case "math/rand", "math/rand/v2":
			if name != "New" && name != "NewSource" {
				mp.Reportf(c.Pos,
					"calls math/rand.%s (process-global source) on a cached path (reachable from %s); derive randomness from the request seed", name, from)
			}
		}
	}

	info := node.Pkg.Info
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if isRandNewSource(info, call) && len(call.Args) == 1 && nonRequestSeed(info, call.Args[0]) {
				mp.Reportf(call.Pos(),
					"seeds rand.NewSource from a non-request value on a cached path (reachable from %s); the seed must come from the request", from)
			}
			if v := globalAtomicUpdate(info, call); v != nil {
				mp.Reportf(call.Pos(),
					"updates package-level atomic %s on a cached path (reachable from %s); a process-wide counter mixes every request's work together, so count per request through the observer", v.Name(), from)
			}
		}
		stmts := stmtList(n)
		for i, s := range stmts {
			rng, ok := s.(*ast.RangeStmt)
			if !ok || !isMapType(info, rng.X) {
				continue
			}
			for _, f := range mapRangeFindings(info, rng, stmts[i+1:]) {
				mp.Reportf(f.pos, "%s (on a cached path, reachable from %s)", f.msg, from)
			}
			for _, f := range floatFoldFindings(info, rng) {
				mp.Reportf(f.pos, "%s (on a cached path, reachable from %s)", f.msg, from)
			}
		}
		return true
	})
}

// isRandNewSource reports whether call invokes math/rand's NewSource.
func isRandNewSource(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "NewSource" || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == "math/rand" || path == "math/rand/v2"
}

// globalAtomicUpdate returns the package-level variable whose Add, Store,
// Swap or CompareAndSwap method (of a sync/atomic type) call invokes, or
// nil.
func globalAtomicUpdate(info *types.Info, call *ast.CallExpr) *types.Var {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil
	}
	switch fn.Name() {
	case "Add", "Store", "Swap", "CompareAndSwap":
	default:
		return nil
	}
	var id *ast.Ident
	switch x := unparen(sel.X).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr: // a qualified identifier, pkg.Var
		id = x.Sel
	default:
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// nonRequestSeed reports whether the seed expression draws on anything other
// than the request itself: a (non-conversion) call — time.Now().UnixNano()
// being the classic — or a package-level variable. Constants, parameters and
// fields of the request are fine.
func nonRequestSeed(info *types.Info, arg ast.Expr) bool {
	bad := false
	ast.Inspect(arg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := info.Types[unparen(n.Fun)]; !ok || !tv.IsType() {
				bad = true
			}
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); ok &&
				v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				bad = true
			}
		}
		return !bad
	})
	return bad
}

// floatFoldFindings flags floating-point op-assign accumulation inside a map
// range. mapdet accepts op-assign folds as commutative, which is true of
// integers; float addition and multiplication round per step, so the
// accumulated value depends on iteration order — exactly what a cached path
// must not.
func floatFoldFindings(info *types.Info, rng *ast.RangeStmt) []mapFinding {
	var out []mapFinding
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := unparen(lhs).(*ast.Ident)
			if !ok || !declaredOutside(info, id, rng.Body) {
				continue
			}
			t := info.TypeOf(id)
			if t == nil {
				continue
			}
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				out = append(out, mapFinding{as.Pos(),
					"accumulates float " + id.Name + " in map iteration order; per-step rounding makes the sum order-dependent"})
			}
		}
		return true
	})
	return out
}
