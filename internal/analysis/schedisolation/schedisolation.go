// Package schedisolation defines an analyzer enforcing the repository's
// scheduler-isolation invariant: outside a small allowlist, no code may
// reference the process-global scheduler parallel.Default or the
// package-level convenience wrappers that delegate to it. All parallelism
// in build-phase and algorithm code must flow through the *parallel.Scheduler
// the code is handed, so that independent engines never share worker pools
// by accident.
//
// The check is type-aware: it resolves identifiers to the objects they
// denote, so an aliased import (p "repro/internal/parallel"), a dot import,
// or a re-exported function value cannot dodge it the way the old
// string-grep test in gbbs/guard_test.go could be dodged.
package schedisolation

import (
	"go/ast"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/analysis/lintutil"
)

// banned is the set of package-level objects in internal/parallel that
// touch the process-global scheduler: the Default variable itself and the
// free functions that delegate to it. Constructors (New, NewWithGrain) and
// RecoverStop are instance-safe and stay usable everywhere.
var banned = map[string]bool{
	"Default":    true,
	"Workers":    true,
	"SetWorkers": true,
	"ForRange":   true,
	"For":        true,
	"Do":         true,
	"DoN":        true,
	"Blocks":     true,
	"ForBlocks":  true,
}

// allow is the package allowlist (-allow flag). Each entry must justify
// itself here, at the allowlist site:
//
//   - repro/gbbs: the public facade deliberately preserves the historical
//     free-function surface (gbbs.BFS(g, src) etc.) used by the paper
//     measurement path; its wrappers delegate to parallel.Default by
//     documented design, and engine-scoped callers use Engine instead.
var allow = lintutil.NewPackageList(
	"repro/gbbs",
)

const name = "schedisolation"

// Analyzer flags references to parallel.Default and its package-level
// wrappers outside the allowlist.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "flag references to the process-global scheduler (parallel.Default and its package-level wrappers) outside the allowlist; " +
		"engine and algorithm code must run on the scheduler it is passed",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func init() {
	Analyzer.Flags.Var(allow, "allow", "comma-separated import paths allowed to reference the global scheduler")
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Path() == lintutil.SchedulerPkgPath || allow[pass.Pkg.Path()] {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.Ident)(nil)}, func(n ast.Node) {
		id := n.(*ast.Ident)
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != lintutil.SchedulerPkgPath {
			return
		}
		if !banned[obj.Name()] || obj.Parent() != obj.Pkg().Scope() {
			return
		}
		if lintutil.InTestFile(pass, id.Pos()) || lintutil.Allowed(pass, id.Pos(), name) {
			return
		}
		pass.Reportf(id.Pos(), "reference to the process-global scheduler parallel.%s; run on the *parallel.Scheduler this code is passed (or add the package to schedisolation's allowlist with a justification)", obj.Name())
	})
	return nil, nil
}
