package callgraph

// This file is the facts layer: per-function local summaries (lock
// operations with canonical lock identities, blocking operations,
// allocation sites, wall-clock and map-order taint) and the deterministic
// propagation machinery the interprocedural analyzers walk.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockID is a canonical lock identity. Identities are chains rooted either
// at a receiver type — "(pkg.Thread).P.cs.lock" — or at a package-level
// variable. Two lock expressions with the same identity are conservatively
// treated as the same lock; distinct fields yield distinct identities, so
// Proc.cs, Proc.queueCS and Proc.nicCS stay separate.
type LockID = string

// IsIndexed reports whether a lock identity passes through an indexed
// step — an array or slice of locks, rendered with "[]" by the
// canonicalizer, like "(mpi.Thread).P.vcis[].cs.lock". Every element of
// such a family canonicalizes to the one class: the class is kept
// distinct from every other lock (not collapsed), but its elements are
// statically indistinguishable (not exploded). Consumers that reason
// about re-acquisition must treat a same-class pair as two potentially
// different elements — legal under the module-wide ascending-index
// acquisition discipline — rather than as a reentrant self-deadlock.
func IsIndexed(id LockID) bool { return strings.Contains(id, "[]") }

// LockOp is one leaf lock operation: a call to a method named Acquire or
// Release. Higher-level protocol wrappers (csLock.enter, Thread.mainBegin)
// are not leaf ops — their effect arrives through call-edge summaries.
type LockOp struct {
	Pos      token.Pos
	ID       LockID
	Acquire  bool
	Deferred bool // inside a defer statement: applies at function exit
}

// Op is one position-tagged local fact (a blocking operation, an
// allocation site, a wall-clock read, a map range).
type Op struct {
	Pos  token.Pos
	Desc string
}

// Facts holds one function's local summaries, in source order.
type Facts struct {
	Locks     []LockOp
	Blocks    []Op // go/channel/select ops and Park calls (engine mechanics in internal/sim excluded)
	Allocs    []Op // heap-allocating constructs (panic arguments excluded)
	Wallclock []Op // time.Now-family calls and math/rand / crypto/rand uses
	MapRanges []Op // range statements over maps
}

// Summary is a function's net critical-section effect, in the function's
// own frame: locks that may remain held at return, and locks released
// without a matching acquisition (protocol-wrapper shape).
type Summary struct {
	NetHeld     []LockID
	NetReleased []LockID
}

// forbiddenTimeFuncs mirrors the nodeterm analyzer's wall-clock list.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// randPackages are the ambient randomness sources.
var randPackages = map[string]bool{
	"math/rand": true, "math/rand/v2": true, "crypto/rand": true,
}

// allocStdlib marks stdlib calls that allocate on every invocation.
func allocStdlib(pkg, name string) bool {
	switch pkg {
	case "fmt":
		return true
	case "errors":
		return name == "New"
	case "strconv":
		return strings.HasPrefix(name, "Format") || strings.HasPrefix(name, "Append") ||
			name == "Itoa" || name == "Quote"
	}
	return false
}

// localFacts scans one node's body (closures attributed to the node).
func localFacts(fset *token.FileSet, n *Node, canon *canonicalizer) *Facts {
	f := &Facts{}
	u := n.Unit
	simPkg := strings.Contains(u.Pkg.Path(), "internal/sim")

	// Panic-argument ranges: allocation inside panic(...) is exempt — a
	// panicking simulation is already dead.
	var panicRanges [][2]token.Pos
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" && isBuiltinUse(u, id) {
			panicRanges = append(panicRanges, [2]token.Pos{call.Pos(), call.End()})
		}
		return true
	})
	inPanic := func(pos token.Pos) bool {
		for _, r := range panicRanges {
			if pos >= r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}
	alloc := func(pos token.Pos, desc string) {
		if !inPanic(pos) {
			f.Allocs = append(f.Allocs, Op{pos, desc})
		}
	}

	// deferDepth tracks whether the walk is inside a defer statement (the
	// deferred call and everything under it, closures included).
	var walk func(x ast.Node, deferred bool)
	walk = func(root ast.Node, deferred bool) {
		ast.Inspect(root, func(x ast.Node) bool {
			switch e := x.(type) {
			case *ast.DeferStmt:
				if !deferred {
					walk(e.Call, true)
					return false
				}
			case *ast.GoStmt:
				if !simPkg {
					f.Blocks = append(f.Blocks, Op{e.Pos(), "go statement"})
				}
			case *ast.SendStmt:
				if !simPkg {
					f.Blocks = append(f.Blocks, Op{e.Pos(), "channel send"})
				}
			case *ast.UnaryExpr:
				if e.Op == token.ARROW && !simPkg {
					f.Blocks = append(f.Blocks, Op{e.Pos(), "channel receive"})
				}
				if e.Op == token.AND {
					if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
						alloc(e.Pos(), "composite literal escapes to the heap (&T{...})")
					}
				}
			case *ast.SelectStmt:
				if !simPkg {
					f.Blocks = append(f.Blocks, Op{e.Pos(), "select"})
				}
			case *ast.RangeStmt:
				if tv, ok := u.Info.Types[e.X]; ok {
					switch tv.Type.Underlying().(type) {
					case *types.Map:
						f.MapRanges = append(f.MapRanges, Op{e.Pos(), "range over map"})
					case *types.Chan:
						if !simPkg {
							f.Blocks = append(f.Blocks, Op{e.Pos(), "range over channel"})
						}
					}
				}
			case *ast.FuncLit:
				alloc(e.Pos(), "function literal (closure may escape to the heap)")
			case *ast.CompositeLit:
				if tv, ok := u.Info.Types[e]; ok {
					switch tv.Type.Underlying().(type) {
					case *types.Map:
						alloc(e.Pos(), "map literal")
					case *types.Slice:
						alloc(e.Pos(), "slice literal")
					}
				}
			case *ast.BinaryExpr:
				if e.Op == token.ADD {
					if tv, ok := u.Info.Types[e]; ok {
						if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
							alloc(e.Pos(), "string concatenation")
						}
					}
				}
			case *ast.CallExpr:
				scanCall(u, canon, f, e, deferred, simPkg, alloc)
			case *ast.Ident:
				if obj, ok := u.Info.Uses[e].(*types.Func); ok && obj.Pkg() != nil {
					if obj.Pkg().Path() == "time" && forbiddenTimeFuncs[obj.Name()] {
						f.Wallclock = append(f.Wallclock, Op{e.Pos(), "time." + obj.Name()})
					} else if randPackages[obj.Pkg().Path()] {
						f.Wallclock = append(f.Wallclock, Op{e.Pos(), obj.Pkg().Path() + "." + obj.Name()})
					}
				}
			}
			return true
		})
	}
	walk(n.Decl.Body, false)

	sortOps(f.Blocks)
	sortOps(f.Allocs)
	sortOps(f.Wallclock)
	sortOps(f.MapRanges)
	sort.Slice(f.Locks, func(i, j int) bool { return f.Locks[i].Pos < f.Locks[j].Pos })
	return f
}

// scanCall records the call-shaped facts: leaf lock ops, Park calls, and
// allocating calls (make/new/append, allocating stdlib, conversions).
func scanCall(u *Unit, canon *canonicalizer, f *Facts, call *ast.CallExpr,
	deferred, simPkg bool, alloc func(token.Pos, string)) {
	localAddrArgs(u, call, alloc)
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		// Builtin allocators. go/types records builtin idents in Uses as
		// *types.Builtin, so "not a declared object" means nil or builtin.
		if isBuiltinUse(u, fun) {
			switch fun.Name {
			case "make":
				alloc(call.Pos(), "make allocates")
			case "new":
				alloc(call.Pos(), "new allocates")
			case "append":
				if !isSliceDelete(call) {
					alloc(call.Pos(), "append may grow its backing array")
				}
			}
			return
		}
		if obj, ok := u.Info.Uses[fun].(*types.Func); ok && obj.Pkg() != nil &&
			allocStdlib(obj.Pkg().Path(), obj.Name()) {
			alloc(call.Pos(), obj.Pkg().Path()+"."+obj.Name()+" allocates")
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if name == "Acquire" || name == "Release" {
			if _, ok := u.Info.Selections[fun]; ok {
				id, _ := canon.expr(fun.X)
				if id == "" {
					id = "(unknown)"
				}
				f.Locks = append(f.Locks, LockOp{
					Pos: call.Pos(), ID: id, Acquire: name == "Acquire", Deferred: deferred,
				})
				return
			}
		}
		if name == "Park" && !simPkg {
			if _, ok := u.Info.Selections[fun]; ok {
				f.Blocks = append(f.Blocks, Op{call.Pos(), "Park"})
				return
			}
		}
		// Wall-clock reads are recorded by the Ident case (selector Sel
		// idents resolve there too); only allocation matters here.
		if obj, ok := u.Info.Uses[fun.Sel].(*types.Func); ok && obj.Pkg() != nil &&
			allocStdlib(obj.Pkg().Path(), obj.Name()) {
			alloc(call.Pos(), obj.Pkg().Path()+"."+obj.Name()+" allocates")
		}
	default:
		// Conversions that copy: string(b), []byte(s), []rune(s).
		if tv, ok := u.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
			dst := tv.Type.Underlying()
			if argTV, ok := u.Info.Types[call.Args[0]]; ok {
				src := argTV.Type.Underlying()
				if isStringByteConv(dst, src) {
					alloc(call.Pos(), "string/[]byte conversion copies")
				}
			}
		}
	}
}

// localAddrArgs records each argument of the form &v, v a local variable,
// whose parameter is an interface: boxing the pointer makes v escape, so
// the variable itself is heap-allocated on every call, though no
// allocating construct is written.
func localAddrArgs(u *Unit, call *ast.CallExpr, alloc func(token.Pos, string)) {
	tv, ok := u.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
		if !ok || ue.Op != token.AND {
			continue
		}
		id, ok := ast.Unparen(ue.X).(*ast.Ident)
		if !ok {
			continue
		}
		v, ok := u.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
			continue
		}
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) {
			alloc(ue.Pos(), "address of local "+id.Name+" passed as an interface (the variable escapes to the heap)")
		}
	}
}

// isBuiltinUse reports whether the ident resolves to a builtin (or to
// nothing at all), i.e. it does not name a declared function.
// isSliceDelete recognizes `append(s[:i], s[j:]...)` — the slice-delete
// idiom. The result is never longer than s, so the append cannot grow the
// backing array and does not allocate.
func isSliceDelete(call *ast.CallExpr) bool {
	if len(call.Args) != 2 || !call.Ellipsis.IsValid() {
		return false
	}
	dst, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr)
	if !ok {
		return false
	}
	src, ok := ast.Unparen(call.Args[1]).(*ast.SliceExpr)
	if !ok {
		return false
	}
	return sameSimpleExpr(dst.X, src.X)
}

// sameSimpleExpr reports whether two expressions are the same identifier
// or selector chain (conservatively false for anything else).
func sameSimpleExpr(a, b ast.Expr) bool {
	switch a := ast.Unparen(a).(type) {
	case *ast.Ident:
		b, ok := ast.Unparen(b).(*ast.Ident)
		return ok && a.Name == b.Name
	case *ast.SelectorExpr:
		b, ok := ast.Unparen(b).(*ast.SelectorExpr)
		return ok && a.Sel.Name == b.Sel.Name && sameSimpleExpr(a.X, b.X)
	}
	return false
}

func isBuiltinUse(u *Unit, id *ast.Ident) bool {
	switch u.Info.Uses[id].(type) {
	case nil, *types.Builtin:
		return true
	}
	return false
}

// isStringByteConv reports whether a conversion between dst and src copies
// its operand (string <-> []byte / []rune).
func isStringByteConv(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteSlice(src)) || (isByteSlice(dst) && isStr(src))
}

func sortOps(ops []Op) {
	sort.Slice(ops, func(i, j int) bool { return ops[i].Pos < ops[j].Pos })
}

// ---- canonical lock identities ----

// canonicalizer renders receiver expressions as canonical chains, using
// the enclosing function's receiver and simple single-assignment aliases
// (p := th.P) to keep chains comparable across functions.
type canonicalizer struct {
	u       *Unit
	recvObj types.Object
	root    string
	aliases map[types.Object]string
}

func newCanonicalizer(n *Node) *canonicalizer {
	c := &canonicalizer{u: n.Unit, root: n.RecvRoot, aliases: map[types.Object]string{}}
	if n.Decl.Recv != nil && len(n.Decl.Recv.List) > 0 && len(n.Decl.Recv.List[0].Names) > 0 {
		c.recvObj = n.Unit.Info.Defs[n.Decl.Recv.List[0].Names[0]]
	}
	// Alias prepass, in source order: x := <canonicalizable expr> records
	// an alias; any later plain assignment to x invalidates it.
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if as.Tok == token.DEFINE {
			if obj := n.Unit.Info.Defs[id]; obj != nil {
				if v, ok := c.expr(as.Rhs[0]); ok {
					c.aliases[obj] = v
				}
			}
			return true
		}
		if obj := n.Unit.Info.Uses[id]; obj != nil {
			delete(c.aliases, obj)
		}
		return true
	})
	return c
}

// expr canonicalizes a receiver chain. The fallback anchors at the
// expression's named type — "(pkg.T)" — which conservatively merges
// instances of the same type.
func (c *canonicalizer) expr(e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := c.u.Info.Uses[x]
		if obj == nil {
			obj = c.u.Info.Defs[x]
		}
		if obj != nil {
			if obj == c.recvObj && c.root != "" {
				return c.root, true
			}
			if v, ok := c.aliases[obj]; ok {
				return v, true
			}
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil &&
				v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name(), true
			}
		}
		return c.typeFallback(x)
	case *ast.SelectorExpr:
		// Package-qualified: pkg.Var.
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := c.u.Info.Uses[id].(*types.PkgName); isPkg {
				if obj := c.u.Info.Uses[x.Sel]; obj != nil && obj.Pkg() != nil {
					return obj.Pkg().Path() + "." + obj.Name(), true
				}
			}
		}
		if base, ok := c.expr(x.X); ok {
			return base + "." + x.Sel.Name, true
		}
		// Anchor the field at its owner's type.
		if tv, ok := c.u.Info.Types[x.X]; ok {
			if name := namedTypeID(tv.Type); name != "" {
				return name + "." + x.Sel.Name, true
			}
		}
		return "", false
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return c.expr(x.X)
		}
		return "", false
	case *ast.StarExpr:
		return c.expr(x.X)
	case *ast.IndexExpr:
		if base, ok := c.expr(x.X); ok {
			return base + "[]", true
		}
		return "", false
	default:
		return c.typeFallback(e)
	}
}

func (c *canonicalizer) typeFallback(e ast.Expr) (string, bool) {
	if tv, ok := c.u.Info.Types[e]; ok {
		if name := namedTypeID(tv.Type); name != "" {
			return name, true
		}
	}
	return "", false
}

// namedTypeID renders "(pkgpath.Type)" for a (possibly pointer-to) named
// type, "" otherwise.
func namedTypeID(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return "(" + n.Obj().Pkg().Path() + "." + n.Obj().Name() + ")"
}

// Lift re-roots a callee lock identity into the caller's frame: when the
// callee is a method and the call site's receiver canonicalized, the
// callee's receiver-rooted identities are rebased onto the caller-side
// receiver chain — (mpi.csLock).lock seen through p.cs.enter becomes
// (mpi.Thread).P.cs.lock.
func Lift(callee *Node, e *Edge, id LockID) LockID {
	if callee != nil && callee.RecvRoot != "" && e.RecvCanon != "" &&
		strings.HasPrefix(id, callee.RecvRoot) {
		return e.RecvCanon + strings.TrimPrefix(id, callee.RecvRoot)
	}
	return id
}

// FollowForLocks reports whether a lock-effect walk descends an edge: leaf
// Acquire/Release edges are the ops themselves (the lock-implementation
// layer below them is the lock, not a user of it), and dynamic edges are
// too imprecise to attribute lock effects through.
func FollowForLocks(e *Edge) bool {
	if e.Kind == EdgeDynamic {
		return false
	}
	return e.Name != "Acquire" && e.Name != "Release"
}

// Event is one step of a function's lock-effect walk: either a leaf lock
// op or a call edge, in source order.
type Event struct {
	Pos  token.Pos
	Op   *LockOp // leaf op, or nil
	Edge *Edge   // call edge, or nil
}

// WalkHeld walks n's lock events in source order, invoking visit with each
// event and the set of locks held just before it (sorted, caller's frame).
// Call-edge effects are the callee's transitive Summary, lifted into n's
// frame; deferred releases apply after the last event.
func (g *Graph) WalkHeld(n *Node, visit func(ev Event, held []LockID)) {
	g.walkHeld(n, visit, map[*Node]bool{})
}

func (g *Graph) walkHeld(n *Node, visit func(ev Event, held []LockID), onstack map[*Node]bool) *Summary {
	if n.Facts == nil {
		return &Summary{}
	}
	cnt := map[LockID]int{}
	deferRel := map[LockID]int{}
	heldNow := func() []LockID {
		var out []LockID
		for id, c := range cnt {
			if c > 0 {
				out = append(out, id)
			}
		}
		sort.Strings(out)
		return out
	}

	events := mergeEvents(n)
	for _, ev := range events {
		if visit != nil {
			visit(ev, heldNow())
		}
		switch {
		case ev.Op != nil:
			if ev.Op.Deferred && !ev.Op.Acquire {
				deferRel[ev.Op.ID]++
				continue
			}
			if ev.Op.Acquire {
				cnt[ev.Op.ID]++
			} else {
				cnt[ev.Op.ID]--
			}
		case ev.Edge != nil:
			if !FollowForLocks(ev.Edge) {
				continue
			}
			for _, callee := range g.Callees(ev.Edge) {
				if onstack[callee] {
					continue
				}
				s := g.NodeSummary(callee, onstack)
				for _, id := range s.NetHeld {
					cnt[Lift(callee, ev.Edge, id)]++
				}
				for _, id := range s.NetReleased {
					cnt[Lift(callee, ev.Edge, id)]--
				}
			}
		}
	}
	for id, c := range deferRel {
		cnt[id] -= c
	}
	sum := &Summary{}
	ids := make([]LockID, 0, len(cnt))
	for id := range cnt {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		switch {
		case cnt[id] > 0:
			sum.NetHeld = append(sum.NetHeld, id)
		case cnt[id] < 0:
			sum.NetReleased = append(sum.NetReleased, id)
		}
	}
	return sum
}

// NodeSummary computes (and memoizes) a node's net lock-effect summary.
// Recursion through call cycles is cut conservatively.
func (g *Graph) NodeSummary(n *Node, onstack map[*Node]bool) *Summary {
	if s, ok := g.summaries[n]; ok {
		return s
	}
	if onstack == nil {
		onstack = map[*Node]bool{}
	}
	onstack[n] = true
	s := g.walkHeld(n, nil, onstack)
	delete(onstack, n)
	g.summaries[n] = s
	return s
}

// mergeEvents interleaves a node's leaf lock ops and call edges by source
// position. Leaf Acquire/Release call sites appear in both lists; the edge
// copy is dropped (the op carries the effect).
func mergeEvents(n *Node) []Event {
	var evs []Event
	for i := range n.Facts.Locks {
		op := &n.Facts.Locks[i]
		evs = append(evs, Event{Pos: op.Pos, Op: op})
	}
	for _, e := range n.Edges {
		if e.Name == "Acquire" || e.Name == "Release" {
			continue
		}
		evs = append(evs, Event{Pos: e.Pos, Edge: e})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Pos < evs[j].Pos })
	return evs
}

// TransAcquires returns the lock identities that calling n may acquire
// (leaf acquires in n's subtree, lifted into n's frame), memoized.
func (g *Graph) TransAcquires(n *Node) []LockID {
	return g.transAcquires(n, map[*Node]bool{})
}

func (g *Graph) transAcquires(n *Node, onstack map[*Node]bool) []LockID {
	if ids, ok := g.transAcq[n]; ok {
		return ids
	}
	if n.Facts == nil {
		return nil
	}
	onstack[n] = true
	set := map[LockID]bool{}
	for _, op := range n.Facts.Locks {
		if op.Acquire {
			set[op.ID] = true
		}
	}
	for _, e := range n.Edges {
		if !FollowForLocks(e) {
			continue
		}
		for _, callee := range g.Callees(e) {
			if onstack[callee] {
				continue
			}
			for _, id := range g.transAcquires(callee, onstack) {
				set[Lift(callee, e, id)] = true
			}
		}
	}
	delete(onstack, n)
	ids := make([]LockID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	g.transAcq[n] = ids
	return ids
}

// Witness explains one transitive fact: the op it bottoms out in and the
// call chain (node keys) from the queried node to the op's owner.
type Witness struct {
	Op   Op
	Path []string
}

// MayBlock reports whether calling n can reach a real blocking operation
// (Park, go statement, channel op, select) outside the lock-implementation
// layer, with a deterministic witness. Dynamic edges are not followed.
func (g *Graph) MayBlock(n *Node) *Witness {
	return g.mayBlock(n, map[*Node]bool{})
}

func (g *Graph) mayBlock(n *Node, onstack map[*Node]bool) *Witness {
	if w, ok := g.blockW[n]; ok {
		return w
	}
	if n.Facts == nil {
		return nil
	}
	onstack[n] = true
	defer delete(onstack, n)
	var w *Witness
	if len(n.Facts.Blocks) > 0 {
		w = &Witness{Op: n.Facts.Blocks[0], Path: []string{n.Key}}
	} else {
	edges:
		for _, e := range n.Edges {
			if !FollowForLocks(e) {
				continue
			}
			for _, callee := range g.Callees(e) {
				if onstack[callee] {
					continue
				}
				if cw := g.mayBlock(callee, onstack); cw != nil {
					w = &Witness{Op: cw.Op, Path: append([]string{n.Key}, cw.Path...)}
					break edges
				}
			}
		}
	}
	g.blockW[n] = w
	return w
}

// Witnesses computes, for every node, a witness to a local source op
// reachable through nodes satisfying zone (the queried node must satisfy
// zone too). Used for cross-package taint: nodeterm's wall-clock laundering
// (zone = packages exempt from local checking) and maporder's order taint.
func (g *Graph) Witnesses(source func(*Node) *Op, zone func(*Node) bool) map[*Node]*Witness {
	memo := map[*Node]*Witness{}
	onstack := map[*Node]bool{}
	var visit func(n *Node) *Witness
	visit = func(n *Node) *Witness {
		if w, ok := memo[n]; ok {
			return w
		}
		if onstack[n] || !zone(n) {
			return nil
		}
		onstack[n] = true
		defer delete(onstack, n)
		var w *Witness
		if op := source(n); op != nil {
			w = &Witness{Op: *op, Path: []string{n.Key}}
		} else {
		edges:
			for _, e := range n.Edges {
				if e.Kind == EdgeDynamic {
					continue
				}
				for _, callee := range g.Callees(e) {
					if cw := visit(callee); cw != nil {
						w = &Witness{Op: cw.Op, Path: append([]string{n.Key}, cw.Path...)}
						break edges
					}
				}
			}
		}
		memo[n] = w
		return w
	}
	for _, k := range g.keys {
		visit(g.Nodes[k])
	}
	return memo
}
