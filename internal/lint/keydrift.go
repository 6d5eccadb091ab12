package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerKeyDrift guards the persistent store's cache-key completeness: a
// result cached under a content-addressed key is poisoned the moment a field
// that can change the result stops being part of the key. For every persist
// function (name starting with "persist", returning store.Key), every field
// of its request types — the structs carried by its receiver and parameters,
// recursed through module-declared nested structs — must either be read
// inside the function's encode cluster (the persist function itself plus
// every function it reaches that takes a *store.Enc) or be explicitly waived
// with a
//
//	// storekey:exclude <pkg>.<Type>.<Field> <reason>
//
// directive in the persist function's package. The check is interprocedural:
// encoders like workload.Layer.EncodeShape count as coverage for the fields they
// read, in whichever package the persist function lives.
var AnalyzerKeyDrift = &Analyzer{
	Name: "keydrift",
	Doc: "every field of a persisted request type must be encoded into the store.Enc " +
		"key by its persist* function (or a helper it reaches) or waived with " +
		"// storekey:exclude <pkg>.<Type>.<Field> <reason>; an unencoded field silently " +
		"aliases distinct requests onto one store entry",
	RunModule: runKeyDrift,
}

// parseStorekeyDirective parses one comment's text. It returns ("", "", nil)
// when the comment is not a storekey:exclude directive, the waived field path
// and reason when well-formed, and an error when malformed (path not of the
// form pkg.Type.Field, or missing reason).
func parseStorekeyDirective(comment string) (path, reason string, err error) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	if !strings.HasPrefix(text, storekeyDirective) {
		return "", "", nil
	}
	rest := text[len(storekeyDirective):]
	if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
		return "", "", nil
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", fmt.Errorf("malformed // %s directive: missing field path and reason", storekeyDirective)
	}
	path = fields[0]
	if strings.Count(path, ".") != 2 {
		return "", "", fmt.Errorf("// %s path %q must have the form pkg.Type.Field", storekeyDirective, path)
	}
	reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), path))
	if reason == "" {
		return "", "", fmt.Errorf("// %s %s has no reason; document why the field cannot change the result", storekeyDirective, path)
	}
	return path, reason, nil
}

func runKeyDrift(mp *ModulePass) {
	for _, pkg := range mp.Pkgs {
		runKeyDriftPkg(mp, pkg)
	}
}

func runKeyDriftPkg(mp *ModulePass, pkg *Package) {
	type persistFn struct {
		fd  *ast.FuncDecl
		obj *types.Func
	}
	var persists []persistFn
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !strings.HasPrefix(fd.Name.Name, "persist") {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || !returnsStoreKey(obj) {
				continue
			}
			persists = append(persists, persistFn{fd, obj})
		}
	}
	waivers, waiverPaths := collectWaivers(mp, pkg)
	if len(persists) == 0 && len(waivers) == 0 {
		return
	}

	// seen accumulates every field path any of this package's persist
	// functions traversed, so waivers naming nothing real are caught below.
	seen := map[string]bool{}
	for _, p := range persists {
		checkPersistFunc(mp, pkg, p.fd, p.obj, waivers, seen)
	}
	for _, path := range waiverPaths {
		if !seen[path] {
			mp.Reportf(waivers[path],
				"// %s waives %s, which is not a field of any persisted request type in this package; fix the path or drop the directive",
				storekeyDirective, path)
		}
	}
}

// collectWaivers indexes the well-formed storekey:exclude directives of one
// package (path -> directive position) and reports the malformed ones. The
// returned paths are sorted for deterministic diagnostics.
func collectWaivers(mp *ModulePass, pkg *Package) (map[string]token.Pos, []string) {
	waivers := map[string]token.Pos{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				path, _, err := parseStorekeyDirective(c.Text)
				if err != nil {
					mp.Reportf(c.Pos(), "%s", err.Error())
					continue
				}
				if path == "" {
					continue
				}
				if _, dup := waivers[path]; !dup {
					waivers[path] = c.Pos()
				}
			}
		}
	}
	paths := make([]string, 0, len(waivers))
	for path := range waivers {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return waivers, paths
}

// checkPersistFunc verifies one persist function: every field of its request
// types is either covered by the encode cluster or waived.
func checkPersistFunc(mp *ModulePass, pkg *Package, fd *ast.FuncDecl, obj *types.Func,
	waivers map[string]token.Pos, seen map[string]bool) {
	covered := coveredFields(mp, obj)
	sig := obj.Type().(*types.Signature)
	var reqs []*types.Named
	if recv := sig.Recv(); recv != nil {
		if n := moduleStruct(mp, recv.Type()); n != nil {
			reqs = append(reqs, n)
		}
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if n := moduleStruct(mp, params.At(i).Type()); n != nil {
			reqs = append(reqs, n)
		}
	}
	visited := map[*types.Named]bool{}
	for _, req := range reqs {
		walkRequestStruct(mp, fd, req, covered, waivers, seen, visited)
	}
}

// walkRequestStruct checks every field of one request struct and recurses
// into module-declared nested structs. Uncovered and waived fields are not
// descended into: one finding (or one waiver) per subtree, no cascade.
func walkRequestStruct(mp *ModulePass, fd *ast.FuncDecl, named *types.Named,
	covered map[*types.Var]bool, waivers map[string]token.Pos, seen map[string]bool,
	visited map[*types.Named]bool) {
	if visited[named] {
		return
	}
	visited[named] = true
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	typePath := named.Obj().Pkg().Name() + "." + named.Obj().Name()
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		path := typePath + "." + fld.Name()
		seen[path] = true
		if _, ok := waivers[path]; ok {
			continue
		}
		if !covered[fld] {
			mp.Reportf(fd.Name.Pos(),
				"%s does not encode %s into the store key; write it through store.Enc or waive it with '// storekey:exclude %s <reason>'",
				fd.Name.Name, path, path)
			continue
		}
		if nested := moduleStruct(mp, fld.Type()); nested != nil {
			walkRequestStruct(mp, fd, nested, covered, waivers, seen, visited)
		}
	}
}

// coveredFields collects every struct field read anywhere in the persist
// function's encode cluster: the persist function itself plus every function
// reachable from it in the call graph that handles a store.Enc.
func coveredFields(mp *ModulePass, persist *types.Func) map[*types.Var]bool {
	covered := map[*types.Var]bool{}
	reach := mp.Graph.ReachableFrom([]*types.Func{persist})
	fns := make([]*types.Func, 0, len(reach))
	for fn := range reach {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	for _, fn := range fns {
		node := mp.Graph.Nodes[fn]
		if node == nil {
			continue
		}
		if fn != persist && !handlesEnc(fn) {
			continue
		}
		info := node.Pkg.Info
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			se, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			sel, ok := info.Selections[se]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			if v, ok := sel.Obj().(*types.Var); ok {
				covered[v] = true
			}
			return true
		})
	}
	return covered
}

// handlesEnc reports whether the function's receiver or a parameter is a
// store.Enc (or *store.Enc) — membership test for the encode cluster.
func handlesEnc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil && isStoreType(recv.Type(), "Enc") {
		return true
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isStoreType(params.At(i).Type(), "Enc") {
			return true
		}
	}
	return false
}

// returnsStoreKey reports whether fn's sole result is store.Key — the
// signature shape that marks a persist-key constructor.
func returnsStoreKey(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	return res.Len() == 1 && isStoreType(res.At(0).Type(), "Key")
}

// isStoreType reports whether t (pointers stripped) is the named type
// store.<name>, matching by package base name so fixtures importing the real
// store package behave like the shipped code.
func isStoreType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == "store"
}

// moduleStruct resolves t (through pointers, slices and arrays) to a named
// struct type declared in one of the loaded module packages, or nil. Maps,
// interfaces and function types are leaves: their contents cannot be
// field-checked meaningfully.
func moduleStruct(mp *ModulePass, t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		default:
			named, ok := t.(*types.Named)
			if !ok {
				return nil
			}
			if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
				return nil
			}
			tp := named.Obj().Pkg()
			if tp == nil {
				return nil
			}
			for _, pkg := range mp.Pkgs {
				if pkg.Types == tp {
					return named
				}
			}
			return nil
		}
	}
}
