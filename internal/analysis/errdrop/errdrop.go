// Package errdrop flags completion calls on the simulated MPI runtime
// whose result is silently discarded: a bare statement (or a blank
// assignment) of Thread.Wait, Waitall, Waitany, Waitsome, Test or
// Testall, or of the partitioned Pready, PreadyRange, Parrived and Pwait,
// and a multi-value assignment that sends the error result of one of
// them (Test's, Parrived's) to the blank identifier. With the fault plane
// armed these calls are the only place ErrProcFailed, ErrRevoked, or
// ErrTimeout can surface; dropping the result turns a detected rank
// failure back into a silent hang or wrong answer — the exact bug class
// the recovery machinery exists to prevent.
// Waitany, Waitsome and Testall return no error themselves, but under
// MPI_ERRORS_RETURN their result is the only way to learn which
// request's Err to read, and a dropped Testall result also loses the
// requests still pending.
//
// Call sites that are legitimately fire-and-forget (benchmark inner loops
// on fault-free worlds, fatal-error-handler code where errors panic
// before returning) carry a //simcheck:allow errdrop annotation with the
// justification. Test files are skipped.
package errdrop

import (
	"go/ast"
	"go/types"
	"strings"

	"mpicontend/internal/analysis"
)

// Analyzer is the errdrop rule.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc: "the result of Thread.Wait/Waitall/Waitany/Waitsome/Test/Testall " +
		"and of the partitioned Pready/PreadyRange/Parrived/Pwait " +
		"must be consumed; a discarded result swallows process-failure, " +
		"revocation, and timeout errors",
	Applies: func(path string) bool {
		return analysis.PathHasSegment(path, "internal")
	},
	Run: run,
}

// dropped names the completion methods whose result must be consumed,
// with the reason shown in the diagnostic.
var dropped = map[string]string{
	"Wait":     "error",
	"Waitall":  "first error",
	"Waitany":  "index of the request whose error to read",
	"Waitsome": "indices of the requests whose errors to read",
	"Test":     "completion flag and error",
	"Testall":  "pending requests (dropping it leaks them)",

	"Pready":      "error",
	"PreadyRange": "error",
	"Parrived":    "arrival flag and error",
	"Pwait":       "error",
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				check(pass, st.X)
			case *ast.AssignStmt:
				// A blank assignment is still a discard: `_ = th.Wait(r)`
				// deserves the same justification a bare statement does.
				if len(st.Lhs) == 1 && len(st.Rhs) == 1 && isBlank(st.Lhs[0]) {
					check(pass, st.Rhs[0])
				}
				// So is `done, _ := th.Test(r)`: the flag is kept, the
				// error dropped.
				if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
					checkErr(pass, st.Rhs[0], st.Lhs)
				}
			}
			return true
		})
	}
	return nil
}

// check reports expr if it is a completion call on a Thread whose result
// the surrounding statement drops.
func check(pass *analysis.Pass, expr ast.Expr) {
	call, name, what := completion(pass, expr)
	if call == nil {
		return
	}
	pass.Reportf(call.Pos(),
		"result of Thread.%s discarded — it carries the %s; consume it or annotate with //simcheck:allow errdrop <reason>",
		name, what)
}

// checkErr reports expr if it is a completion call on a Thread whose
// error result the multi-value assignment to lhs sends to the blank
// identifier.
func checkErr(pass *analysis.Pass, expr ast.Expr, lhs []ast.Expr) {
	call, name, _ := completion(pass, expr)
	if call == nil {
		return
	}
	tuple, ok := pass.Info.Types[call].Type.(*types.Tuple)
	if !ok || tuple.Len() != len(lhs) {
		return
	}
	errType := types.Universe.Lookup("error").Type()
	for i := 0; i < tuple.Len(); i++ {
		if isBlank(lhs[i]) && types.Identical(tuple.At(i).Type(), errType) {
			pass.Reportf(call.Pos(),
				"error of Thread.%s discarded; consume it or annotate with //simcheck:allow errdrop <reason>",
				name)
		}
	}
}

// completion returns expr as a completion call on a Thread, with the
// method name and what its result carries, or a nil call.
func completion(pass *analysis.Pass, expr ast.Expr) (*ast.CallExpr, string, string) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return nil, "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", ""
	}
	what, ok := dropped[sel.Sel.Name]
	if !ok || !isThread(pass.Info.Types[sel.X].Type) {
		return nil, "", ""
	}
	return call, sel.Sel.Name, what
}

// isThread reports whether t is the runtime's Thread type (possibly via a
// pointer). Matched by name so the analyzer's own golden testdata can
// model the shape without importing internal/mpi.
func isThread(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Thread"
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
