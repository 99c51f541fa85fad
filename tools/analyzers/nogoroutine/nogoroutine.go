// Package nogoroutine enforces the engine tier's single-threaded-mutation
// contract: the MESIF engine and the machine model are one shared simulated
// state, and "multi-core" workloads are interleaved access sequences —
// never goroutines. Scope is the package-tier taxonomy (see package tier):
// every engine-tier package — resolved from its //hsw:tier directive or the
// checked-in manifest — must not contain go statements, imports of sync or
// sync/atomic, channel operations, or select statements. Every other
// package is exempt: harness and tool tiers legitimately use concurrency
// (the harness tier is covered by a -race CI job instead), external test
// packages exercise engine packages from outside, and tiercheck already
// fails any module package that carries no tier.
//
// Together with tiercheck's import rule (engine imports only engine), the
// per-package check makes the property transitive: nothing reachable from
// an engine API can spawn a goroutine.
//
//hsw:tier tool
package nogoroutine

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"

	"haswellep/tools/analyzers/analysis"
	"haswellep/tools/analyzers/tier"
)

// Analyzer is the nogoroutine instance.
var Analyzer = &analysis.Analyzer{
	Name: "nogoroutine",
	Doc: "reports goroutines, sync primitives, and channel operations in " +
		"engine-tier packages",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !inScope(pass) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement in an engine-tier (single-threaded) package; express concurrency as interleaved access sequences")
			case *ast.ImportSpec:
				if path, err := strconv.Unquote(n.Path.Value); err == nil &&
					(path == "sync" || path == "sync/atomic") {
					pass.Reportf(n.Pos(),
						"import of %s in an engine-tier (single-threaded) package; no synchronization is needed or wanted", path)
				}
			case *ast.SendStmt:
				pass.Reportf(n.Pos(),
					"channel send in an engine-tier (single-threaded) package")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(),
						"channel receive in an engine-tier (single-threaded) package")
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(),
					"select statement in an engine-tier (single-threaded) package")
			}
			return true
		})
	}
	return nil
}

// inScope reports whether the package is enforced: engine tier, minus
// external test packages, whose paths resolve to the engine package they
// test.
func inScope(pass *analysis.Pass) bool {
	return !strings.HasSuffix(pass.Pkg.Name(), "_test") &&
		tier.EffectiveOf(pass.Pkg.Path(), pass.Files) == tier.Engine
}
