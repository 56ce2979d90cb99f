// Package nogoroutine forbids raw concurrency inside the deterministic
// core, the simulation engine (internal/sim) included: simthreads are
// stdlib coroutines the engine switches between itself, so nothing in the
// core needs a goroutine. The real-threads lock library (locks/,
// whose whole point is real contention) is exempt. Anywhere in the core a
// go statement, a channel, or a sync primitive bypasses the engine's
// deterministic scheduler and destroys reproducibility.
//
// The driver shell is exempt by package allowlist: the sweep orchestrator
// (internal/sweep) fans isolated experiment points across OS workers, and
// cmd/* binaries host it — OS-level parallelism there never touches
// simulated state, only wall-clock time. docs/ARCHITECTURE.md draws the
// core/shell boundary this allowlist enforces.
//
// Flagged: go statements; imports of sync and sync/atomic; channel types,
// sends, receives, and selects. The real-threads example
// (examples/reallocks) carries a //simcheck:allow-file nogoroutine
// annotation.
package nogoroutine

import (
	"go/ast"
	"go/token"
	"strings"

	"mpicontend/internal/analysis"
)

// Analyzer is the nogoroutine rule.
var Analyzer = &analysis.Analyzer{
	Name: "nogoroutine",
	Doc: "forbid raw go statements, channels, and sync primitives in the " +
		"deterministic core, the engine included: only locks/ (the " +
		"real-threads library) and the driver shell (internal/sweep, cmd/*) " +
		"may use them",
	Applies: func(path string) bool {
		return !analysis.PathHasSegment(path, "locks") &&
			!analysis.PathHasSegment(path, "cmd") &&
			!strings.HasSuffix(path, "internal/sweep")
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			switch strings.Trim(imp.Path.Value, `"`) {
			case "sync", "sync/atomic":
				pass.Reportf(imp.Pos(),
					"import of %s in the deterministic core; the simulation must multiplex via the engine",
					strings.Trim(imp.Path.Value, `"`))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(x.Pos(),
					"raw goroutine in the deterministic core; spawn simthreads through the engine instead")
			case *ast.ChanType:
				pass.Reportf(x.Pos(),
					"raw channel in the deterministic core; use engine events or thread parking instead")
			case *ast.SendStmt:
				pass.Reportf(x.Pos(), "raw channel send in the deterministic core")
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					pass.Reportf(x.Pos(), "raw channel receive in the deterministic core")
				}
			case *ast.SelectStmt:
				pass.Reportf(x.Pos(), "select in the deterministic core")
			}
			return true
		})
	}
	return nil
}
