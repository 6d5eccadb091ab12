// Package lint implements securelint, the repo-specific static-analysis
// suite behind cmd/securelint. It is built only on the standard library
// (go/parser, go/ast, go/types): packages are parsed and type-checked from
// source, a small analyzer framework runs repo-specific checks over them,
// and findings are reported with positions, a suppression directive and
// text or JSON output.
//
// The checks exist because the scheduler's performance work (PR 1/PR 2)
// leans on repo-wide invariants that ordinary tests cannot see eroding:
// byte-identical deterministic results under parallelism, int64-safe
// tile-volume arithmetic, centralised ceiling division, and lock discipline
// in the sharded caches. Each analyzer guards one of those invariants; see
// DESIGN.md ("Enforced invariants") for the full mapping.
//
// Suppression: a finding is suppressed by the directive
//
//	//securelint:ignore <check> <reason>
//
// placed either at the end of the offending line or on the line directly
// above it. The check name must match the analyzer (comma-separate several),
// and the reason is required documentation for the next reader, not parsed.
package lint

import (
	"context"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one registered check. Per-package checks set Run; module-wide
// checks (which need the call graph and see every loaded package at once)
// set RunModule instead.
type Analyzer struct {
	// Name is the check name used on the command line and in the
	// //securelint:ignore directive.
	Name string
	// Doc is a one-paragraph description of the invariant the check guards.
	Doc string
	// Run reports findings on one type-checked package via pass.Reportf.
	Run func(pass *Pass)
	// RunModule reports findings over the whole loaded module via
	// mp.Reportf. Module analyzers see non-test files only.
	RunModule func(mp *ModulePass)
}

// Pass hands one type-checked package to one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	// Path is the package's import path (fixture packages use their
	// directory name).
	Path   string
	Pkg    *types.Package
	Info   *types.Info
	report func(pos token.Pos, msg string)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// ModulePass hands the full set of loaded packages, plus the call graph
// built over them, to one module-wide analyzer.
type ModulePass struct {
	Fset *token.FileSet
	// Pkgs are every loaded module package (roots plus transitive
	// module-local imports), sorted by import path, non-test files only.
	Pkgs []*Package
	// Graph is the module-wide call graph over Pkgs.
	Graph  *Graph
	report func(pos token.Pos, msg string)
}

// Reportf records a finding at pos.
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	mp.report(pos, fmt.Sprintf(format, args...))
}

// PkgBySuffix returns the loaded package whose import path equals suffix or
// ends in "/"+suffix, or nil. Fixture packages match by their directory
// name.
func (mp *ModulePass) PkgBySuffix(suffix string) *Package {
	for _, pkg := range mp.Pkgs {
		if pkg.Path == suffix || strings.HasSuffix(pkg.Path, "/"+suffix) {
			return pkg
		}
	}
	return nil
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerCeilDiv,
		AnalyzerOverflowMul,
		AnalyzerMapDet,
		AnalyzerLockGuard,
		AnalyzerFloatEq,
		AnalyzerCtxFirst,
		AnalyzerKeyDrift,
		AnalyzerPureDet,
	}
}

// ByName resolves a comma-separated check list ("" or "all" selects every
// analyzer).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" || names == "all" {
		return Analyzers(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Config configures one lint run.
type Config struct {
	// Dir is the directory patterns are resolved against (default ".").
	Dir string
	// Patterns are package patterns: a directory, or a directory followed
	// by "/..." for a recursive walk (default "./...").
	Patterns []string
	// Checks selects a comma-separated subset of analyzers ("" = all).
	Checks string
	// IncludeTests also lints in-package _test.go files.
	IncludeTests bool
}

// Result is the outcome of a lint run.
type Result struct {
	// Diags are the unsuppressed findings, sorted by position.
	Diags []Diagnostic
	// Suppressed counts findings silenced by //securelint:ignore.
	Suppressed int
	// Packages counts the packages analyzed.
	Packages int
}

// RunCtx loads the packages matching cfg and runs the selected analyzers.
// The context is polled between packages (each package's load-and-analyze
// is the natural batch), so a Ctrl-C on a module-wide run stops at the next
// package boundary and returns ctx.Err().
// Per-package analyzers run over each matched package in turn; module
// analyzers run once at the end over every loaded package plus the call
// graph built over them.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	checks, err := ByName(cfg.Checks)
	if err != nil {
		return nil, err
	}
	ld, dirs, err := resolveLoad(cfg)
	if err != nil {
		return nil, err
	}
	var modChecks []*Analyzer
	for _, a := range checks {
		if a.RunModule != nil {
			modChecks = append(modChecks, a)
		}
	}
	res := &Result{}
	for _, d := range dirs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pkg, err := ld.loadRoot(d, cfg.IncludeTests)
		if err != nil {
			return nil, err
		}
		res.Packages++
		diags, suppressed := RunAnalyzers(pkg, checks)
		res.Diags = append(res.Diags, diags...)
		res.Suppressed += suppressed
	}
	if len(modChecks) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		diags, suppressed, err := runModuleAnalyzers(ld, dirs, modChecks)
		if err != nil {
			return nil, err
		}
		res.Diags = append(res.Diags, diags...)
		res.Suppressed += suppressed
	}
	sortDiags(res.Diags)
	return res, nil
}

// resolveLoad applies the Config defaults and resolves the package patterns.
func resolveLoad(cfg Config) (*loader, []string, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	ld, err := newLoader(dir)
	if err != nil {
		return nil, nil, err
	}
	dirs, err := expandPatterns(dir, patterns, cfg.IncludeTests)
	if err != nil {
		return nil, nil, err
	}
	return ld, dirs, nil
}

// runModuleAnalyzers builds the module set and call graph, then runs each
// module check over them. Directive diagnostics are NOT re-collected here —
// the per-package phase already reported them for every root.
func runModuleAnalyzers(ld *loader, dirs []string, checks []*Analyzer) ([]Diagnostic, int, error) {
	mpkgs, err := ld.modulePackages(dirs)
	if err != nil {
		return nil, 0, err
	}
	mp := &ModulePass{Fset: ld.fset, Pkgs: mpkgs, Graph: BuildGraph(mpkgs)}
	var files []*ast.File
	for _, pkg := range mpkgs {
		files = append(files, pkg.Files...)
	}
	ignores, _ := collectIgnores(ld.fset, files)
	var diags []Diagnostic
	suppressed := 0
	for _, a := range checks {
		name := a.Name
		mp.report = func(pos token.Pos, msg string) {
			p := ld.fset.Position(pos)
			if ignores.matches(name, p) {
				suppressed++
				return
			}
			diags = append(diags, Diagnostic{
				File: p.Filename, Line: p.Line, Col: p.Column,
				Check: name, Message: msg,
			})
		}
		a.RunModule(mp)
	}
	return diags, suppressed, nil
}

// GraphCtx loads the packages matching cfg (plus their transitive
// module-local imports) and returns the call graph over them — the
// `securelint -graph` debug surface, also the entry point future
// interprocedural checks can prototype against.
func GraphCtx(ctx context.Context, cfg Config) (*Graph, error) {
	ld, dirs, err := resolveLoad(cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mpkgs, err := ld.modulePackages(dirs)
	if err != nil {
		return nil, err
	}
	return BuildGraph(mpkgs), nil
}

// RunAnalyzers runs the given per-package checks over one loaded package,
// applying the suppression directives found in its files. Malformed
// //securelint:ignore directives (unknown check name, missing reason) are
// reported as findings of the pseudo-check "ignore" — they suppress nothing,
// so a typo cannot silently rot. Module-wide checks in the list are skipped;
// RunCtx runs them separately over the whole module.
func RunAnalyzers(pkg *Package, checks []*Analyzer) (diags []Diagnostic, suppressed int) {
	ignores, dirDiags := collectIgnores(pkg.Fset, pkg.Files)
	diags = append(diags, dirDiags...)
	for _, a := range checks {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Fset:  pkg.Fset,
			Files: pkg.Files,
			Path:  pkg.Path,
			Pkg:   pkg.Types,
			Info:  pkg.Info,
		}
		pass.report = func(pos token.Pos, msg string) {
			p := pkg.Fset.Position(pos)
			if ignores.matches(a.Name, p) {
				suppressed++
				return
			}
			diags = append(diags, Diagnostic{
				File: p.Filename, Line: p.Line, Col: p.Column,
				Check: a.Name, Message: msg,
			})
		}
		a.Run(pass)
	}
	sortDiags(diags)
	return diags, suppressed
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
}
