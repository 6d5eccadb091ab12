package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerCtxFirst enforces the context-threading convention of the search
// pipeline (DESIGN.md "Cancellation, errors and observability"): an exported
// function in one of the scheduling packages that fans out goroutines or
// loops over per-layer / per-tiling work is long-running, so it must accept
// a context.Context as its first parameter for cancellation to reach it.
// Backward-compatible wrappers that merely delegate to a Ctx variant contain
// neither goroutines nor work loops and stay legal without a context.
var AnalyzerCtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc: "exported functions in the search packages that spawn goroutines or loop " +
		"over layer/tiling work must take a context.Context as their first parameter",
	Run: runCtxFirst,
}

// ctxfirstPackages are the import-path suffixes the check applies to: the
// packages on the cancellable search path.
var ctxfirstPackages = []string{
	"internal/core",
	"internal/mapper",
	"internal/authblock",
	"internal/dse",
	"internal/anneal",
	"internal/par",
	"internal/service",
	"internal/service/client",
}

// ctxfirstWorkTypes name the element types whose iteration marks a function
// as search work. DesignPoint is deliberately absent: post-processing over
// finished design points (Pareto marking, front extraction) is cheap and
// stays context-free.
var ctxfirstWorkTypes = map[string]bool{
	"Layer":     true,
	"Spec":      true,
	"Config":    true,
	"Candidate": true,
	// Seed covers the guided search's warm-start path: each seed applied is
	// a full tiling evaluation, so a loop over seeds is search work.
	"Seed": true,
}

// ctxfirstApplies scopes the check to the search packages; the fixture
// package matches by base name.
func ctxfirstApplies(path string) bool {
	if path == "ctxfirst" || strings.HasSuffix(path, "/ctxfirst") {
		return true
	}
	for _, p := range ctxfirstPackages {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

func runCtxFirst(pass *Pass) {
	if !ctxfirstApplies(pass.Path) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv != nil && !exportedRecv(fd.Recv) {
				// Methods on unexported types are internal machinery.
				continue
			}
			switch idx := ctxParamIndex(pass, fd.Type.Params); {
			case idx == 0:
				// Convention satisfied.
			case idx > 0:
				pass.Reportf(fd.Name.Pos(),
					"exported %s takes a context.Context but not as its first parameter",
					describeFunc(fd))
			default:
				if why := ctxfirstWork(pass, fd.Body); why != "" {
					pass.Reportf(fd.Name.Pos(),
						"exported %s %s but has no context.Context parameter; accept ctx first so cancellation reaches it",
						describeFunc(fd), why)
				}
			}
		}
	}
}

func describeFunc(fd *ast.FuncDecl) string {
	if fd.Recv != nil {
		return "method " + fd.Name.Name
	}
	return "function " + fd.Name.Name
}

// exportedRecv reports whether the receiver's base type name is exported.
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}

// ctxParamIndex returns the flattened position of the first context.Context
// parameter, or -1 if there is none.
func ctxParamIndex(pass *Pass, params *ast.FieldList) int {
	if params == nil {
		return -1
	}
	idx := 0
	for _, field := range params.List {
		if isContextType(pass, field.Type) {
			return idx
		}
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		idx += n
	}
	return -1
}

func isContextType(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// ctxfirstWork reports why a function body counts as search work: it spawns
// goroutines, or it ranges over a collection of work-typed elements.
func ctxfirstWork(pass *Pass, body *ast.BlockStmt) string {
	var reason string
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			reason = "spawns goroutines"
			return false
		case *ast.RangeStmt:
			if name := workElemName(pass, n.X); name != "" {
				reason = "ranges over " + name + " work"
				return false
			}
		}
		return true
	})
	return reason
}

// workElemName resolves the element type of a ranged slice/array/map,
// dereferences a pointer element, and returns the type name when it is one
// of the work types.
func workElemName(pass *Pass, x ast.Expr) string {
	t := pass.TypeOf(x)
	if t == nil {
		return ""
	}
	var elem types.Type
	switch u := t.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	case *types.Map:
		elem = u.Elem()
	default:
		return ""
	}
	if p, ok := elem.(*types.Pointer); ok {
		elem = p.Elem()
	}
	named, ok := elem.(*types.Named)
	if !ok {
		return ""
	}
	if ctxfirstWorkTypes[named.Obj().Name()] {
		return named.Obj().Name()
	}
	return ""
}
