// Package lockpair enforces the critical-section discipline of the
// simulated MPI runtime (internal/mpi): every lock acquisition must have a
// matching release on every return path of the same function, and nothing
// may block on real concurrency primitives while the critical section is
// held. An unbalanced section, or a raw channel operation under the
// lock, corrupts exactly the arbitration measurements the paper is about
// (who gets the critical section next, and when).
//
// The pairing check is path-sensitive, per function, per lock expression:
//
//   - Calls named Acquire/enter/mainBegin/stateBegin are acquisitions;
//     Release/exit/mainEnd/stateEnd are the matching releases. The pair
//     kind and the receiver text (p.cs, p.queueCS, th, ...) form the key.
//   - The statement walk tracks the held sections along each control-flow
//     path: branches merge conservatively (a section held on either arm
//     counts as held), loops may run zero times, and terminated paths
//     (return, panic, t.Fatal) stop merging. A return — explicit or the
//     fall-through at the end of the body — while a section is still held
//     is a leak, reported at the return or at the unmatched acquisition.
//   - defer l.Release() (and deferred closures that release) discharges
//     the section on every return that executes after the defer
//     statement; a return reached before the defer is still a leak.
//   - A release with no acquisition in the same function is a protocol
//     wrapper and must be annotated.
//   - Between an acquisition and its release (or the end of the enclosing
//     block), go statements, channel sends/receives, select statements,
//     and sim.Thread.Park calls are flagged. Virtual-time th.S.Sleep is
//     fine — it models work inside the section.
//
// Cross-function protocol wrappers (mainBegin/mainEnd themselves, the
// csLock.enter/exit helpers) carry //simcheck:allow lockpair annotations;
// deadlocks that only emerge across functions are the lockorder
// analyzer's job.
package lockpair

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"sort"
	"strings"

	"mpicontend/internal/analysis"
)

// pairKind maps acquire-like and release-like method names onto the pair
// they belong to, so th.mainBegin cannot be "matched" by th.stateEnd.
var acquireKind = map[string]string{
	"Acquire": "Acquire/Release", "enter": "enter/exit",
	"mainBegin": "mainBegin/mainEnd", "stateBegin": "stateBegin/stateEnd",
}
var releaseKind = map[string]string{
	"Release": "Acquire/Release", "exit": "enter/exit",
	"mainEnd": "mainBegin/mainEnd", "stateEnd": "stateBegin/stateEnd",
}

// Analyzer is the lockpair rule.
var Analyzer = &analysis.Analyzer{
	Name: "lockpair",
	Doc: "critical-section Acquire/Release (and mainBegin/mainEnd, " +
		"stateBegin/stateEnd) must pair on all return paths, and no real " +
		"blocking (go, channel ops, select, Park) may happen while held",
	Applies: func(path string) bool {
		return strings.Contains(path, "internal/mpi")
	},
	Run: run,
}

// site is one acquire or release occurrence.
type site struct {
	pos     token.Pos
	key     string // pair kind + receiver expression text
	acquire bool
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkFunc(pass, fd)
			return true
		})
	}
	return nil
}

// checkFunc applies the rules to one function body: the wrapper-shape
// check over the whole body (closures included), the path-sensitive leak
// walk over the declared statements, and the blocking scan.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	all := collectOps(fd.Body, true)
	if len(all) > 0 {
		reportWrappers(pass, all)
		c := &checker{pass: pass}
		if out := c.execList(fd.Body.List, newPathState()); out != nil {
			c.checkExit(token.NoPos, out)
		}
	}
	scanHeldBlocks(pass, fd.Body)
}

// reportWrappers flags keys that are only ever released in this function:
// the protocol-wrapper shape, which needs an explicit annotation.
func reportWrappers(pass *analysis.Pass, ops []site) {
	acquired := map[string]bool{}
	for _, op := range ops {
		if op.acquire {
			acquired[op.key] = true
		}
	}
	seen := map[string]bool{}
	for _, op := range ops {
		if op.acquire || acquired[op.key] || seen[op.key] {
			continue
		}
		seen[op.key] = true
		pair, recv := splitKey(op.key)
		pass.Reportf(op.pos,
			"%s release of %s with no acquisition in this function; annotate protocol wrappers with //simcheck:allow lockpair <reason>",
			pair, recv)
	}
}

// pathState is the abstract state along one control-flow path: the
// unmatched acquisitions per key (in acquisition order) and the deferred
// releases registered so far.
type pathState struct {
	held     map[string][]site
	deferred map[string]int
}

func newPathState() *pathState {
	return &pathState{held: map[string][]site{}, deferred: map[string]int{}}
}

func (st *pathState) clone() *pathState {
	out := newPathState()
	for k, v := range st.held {
		out.held[k] = append([]site(nil), v...)
	}
	for k, v := range st.deferred {
		out.deferred[k] = v
	}
	return out
}

// mergeStates joins two branch exits. nil marks a terminated path (it
// never reaches the join). Held sections merge pessimistically — the
// longer unmatched stack wins — and deferred releases optimistically, so
// a leak is reported whenever some path can leak.
func mergeStates(a, b *pathState) *pathState {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := a.clone()
	for k, v := range b.held {
		if len(v) > len(out.held[k]) {
			out.held[k] = append([]site(nil), v...)
		}
	}
	// Deferred counts merge optimistically to the minimum; keys missing
	// from either side read as zero, so keys only in b need no entry.
	for k := range out.deferred {
		if b.deferred[k] < out.deferred[k] {
			out.deferred[k] = b.deferred[k]
		}
	}
	return out
}

// checker walks a function's statements, threading pathState through.
type checker struct {
	pass *analysis.Pass
}

// execList executes a statement list; nil means the path terminated.
func (c *checker) execList(list []ast.Stmt, st *pathState) *pathState {
	for _, s := range list {
		if st == nil {
			return nil
		}
		st = c.execStmt(s, st)
	}
	return st
}

// execStmt executes one statement, returning the exit state or nil for a
// terminated path.
func (c *checker) execStmt(s ast.Stmt, st *pathState) *pathState {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return c.execList(s.List, st)
	case *ast.LabeledStmt:
		return c.execStmt(s.Stmt, st)
	case *ast.ReturnStmt:
		apply(collectOps(s, false), st)
		c.checkExit(s.Pos(), st)
		return nil
	case *ast.BranchStmt:
		// break/continue/goto leave this statement list; treat the path
		// as not reaching the join (its sections re-merge at the loop).
		return nil
	case *ast.DeferStmt:
		for _, op := range collectOps(s.Call, true) {
			if !op.acquire {
				st.deferred[op.key]++
			}
		}
		return st
	case *ast.GoStmt:
		// The spawned body runs elsewhere; its sections are its own.
		return st
	case *ast.IfStmt:
		if s.Init != nil {
			if st = c.execStmt(s.Init, st); st == nil {
				return nil
			}
		}
		apply(collectOps(s.Cond, false), st)
		thenOut := c.execStmt(s.Body, st.clone())
		elseOut := st
		if s.Else != nil {
			elseOut = c.execStmt(s.Else, st.clone())
		}
		return mergeStates(thenOut, elseOut)
	case *ast.ForStmt:
		if s.Init != nil {
			if st = c.execStmt(s.Init, st); st == nil {
				return nil
			}
		}
		apply(collectOps(s.Cond, false), st)
		bodyOut := c.execStmt(s.Body, st.clone())
		return mergeStates(st, bodyOut) // body may run zero times
	case *ast.RangeStmt:
		apply(collectOps(s.X, false), st)
		bodyOut := c.execStmt(s.Body, st.clone())
		return mergeStates(st, bodyOut)
	case *ast.SwitchStmt:
		return c.execClauses(s.Init, s.Tag, s.Body, st)
	case *ast.TypeSwitchStmt:
		return c.execClauses(s.Init, nil, s.Body, st)
	case *ast.SelectStmt:
		return c.execClauses(nil, nil, s.Body, st)
	case *ast.ExprStmt:
		apply(collectOps(s, false), st)
		if isTerminator(s.X) {
			return nil
		}
		return st
	default:
		apply(collectOps(s, false), st)
		return st
	}
}

// execClauses runs each case body from the pre-switch state and merges
// the exits; without a default the entry state joins too.
func (c *checker) execClauses(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, st *pathState) *pathState {
	if init != nil {
		if st = c.execStmt(init, st); st == nil {
			return nil
		}
	}
	if tag != nil {
		apply(collectOps(tag, false), st)
	}
	var merged *pathState
	hasDefault := false
	for _, cl := range body.List {
		var list []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			list, hasDefault = cl.Body, hasDefault || cl.List == nil
		case *ast.CommClause:
			list, hasDefault = cl.Body, hasDefault || cl.Comm == nil
		default:
			continue
		}
		merged = mergeStates(merged, c.execList(list, st.clone()))
	}
	if !hasDefault {
		merged = mergeStates(merged, st)
	}
	if merged == nil {
		return nil
	}
	return merged
}

// checkExit reports the sections still held at a return. retPos is the
// return statement, or NoPos for the fall-through exit at the end of the
// body (then the report anchors at the unmatched acquisition).
func (c *checker) checkExit(retPos token.Pos, st *pathState) {
	keys := make([]string, 0, len(st.held))
	for key := range st.held {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var leaks []site
	for _, key := range keys {
		stack := st.held[key]
		n := len(stack) - st.deferred[key]
		for i := 0; i < n && i < len(stack); i++ {
			leaks = append(leaks, stack[i])
		}
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
	for _, l := range leaks {
		pair, recv := splitKey(l.key)
		if retPos.IsValid() {
			c.pass.Reportf(retPos,
				"return with %s section of %s still held; release it (or defer the release) before returning",
				pair, recv)
		} else {
			c.pass.Reportf(l.pos,
				"%s acquisition of %s is not released on the fall-through return path",
				pair, recv)
		}
	}
}

// apply folds ordered acquire/release ops into the path state. A release
// with nothing held is the wrapper shape, handled separately.
func apply(ops []site, st *pathState) {
	for _, op := range ops {
		if op.acquire {
			st.held[op.key] = append(st.held[op.key], op)
		} else if n := len(st.held[op.key]); n > 0 {
			st.held[op.key] = st.held[op.key][:n-1]
		}
	}
}

// isTerminator reports whether a call expression never returns: panic, or
// the conventional fatal exits.
func isTerminator(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Fatal", "Fatalf", "Fatalln", "Exit", "Goexit":
			return true
		}
	}
	return false
}

// collectOps records acquire/release calls under n in source order;
// funcLits controls whether function-literal bodies are included.
func collectOps(n ast.Node, funcLits bool) []site {
	if n == nil {
		return nil
	}
	var ops []site
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok && !funcLits && x != n {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if kind, ok := acquireKind[name]; ok {
			ops = append(ops, site{call.Pos(), kind + "\x00" + exprText(sel.X), true})
		} else if kind, ok := releaseKind[name]; ok {
			ops = append(ops, site{call.Pos(), kind + "\x00" + exprText(sel.X), false})
		}
		return true
	})
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].pos < ops[j].pos })
	return ops
}

// scanHeldBlocks walks every statement list (closure bodies included;
// each list accounts independently) and flags real blocking constructs
// appearing while at least one critical section opened in the same list
// is still held.
func scanHeldBlocks(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch s := n.(type) {
		case *ast.BlockStmt:
			list = s.List
		case *ast.CaseClause:
			list = s.Body
		case *ast.CommClause:
			list = s.Body
		default:
			return true
		}
		held := 0
		for _, stmt := range list {
			if _, ok := stmt.(*ast.DeferStmt); ok {
				continue // deferred releases run at exit, not here
			}
			if held > 0 {
				reportBlocking(pass, stmt)
			}
			for _, op := range collectOps(stmt, false) {
				if op.acquire {
					held++
				} else if held > 0 {
					held--
				}
			}
		}
		return true
	})
}

// reportBlocking flags the real-concurrency constructs inside stmt.
func reportBlocking(pass *analysis.Pass, stmt ast.Stmt) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			pass.Reportf(x.Pos(), "go statement while the critical section is held")
		case *ast.SendStmt:
			pass.Reportf(x.Pos(), "channel send while the critical section is held")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				pass.Reportf(x.Pos(), "channel receive while the critical section is held")
			}
		case *ast.SelectStmt:
			pass.Reportf(x.Pos(), "select while the critical section is held")
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Park" {
				pass.Reportf(x.Pos(), "Park while the critical section is held; release before blocking")
			}
		}
		return true
	})
}

// exprText renders an expression (a lock receiver chain) as source text.
func exprText(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return "?"
	}
	return buf.String()
}

// splitKey separates a site key back into pair kind and receiver text.
func splitKey(k string) (pair, recv string) {
	if i := strings.IndexByte(k, 0); i >= 0 {
		return k[:i], k[i+1:]
	}
	return k, "?"
}
