// Package hotalloc keeps the simulator's fast path allocation-free. The
// zero-alloc event core exists because a single allocation per simulated
// event turns into GC pressure that distorts exactly the latency
// distributions the experiments measure; this analyzer makes that
// property a checked invariant instead of a benchmark regression.
//
// Roots are function declarations carrying a //simcheck:hotpath directive
// in their doc comment (the event-queue pop/push, the dispatch loop, the
// transport send/receive path, request completion). From each root the
// analyzer walks the module call graph — static and interface edges, but
// not dynamic function-value calls, which are too imprecise — and reports
// every heap-allocating construct in every reachable function: make/new,
// append, composite literals that escape, closures, the address of a
// local variable passed to an interface parameter (boxing the pointer
// moves the variable to the heap), string concatenation and
// string/[]byte conversions, and allocating stdlib calls (fmt, errors.New,
// strconv formatting). Allocations inside panic arguments are exempt (a
// panicking simulation is already dead).
//
// Traversal is pruned at call edges whose site carries a
// //simcheck:allow hotalloc directive, so a genuinely cold branch (a
// diagnostic path that runs once per failure) can call allocating code
// without poisoning everything below it. A finding is otherwise fixed at
// the allocation site, which may be in a different package than the root
// that reaches it.
package hotalloc

import (
	"strings"

	"mpicontend/internal/analysis"
	"mpicontend/internal/analysis/callgraph"
)

// Analyzer is the hotalloc rule.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "functions reachable from //simcheck:hotpath roots must not " +
		"allocate; prune cold call edges with //simcheck:allow hotalloc",
	Run: run,
}

// hotInfo is the per-graph traversal result: every reachable node mapped
// to the key of the first root (in sorted order) that reaches it.
type hotInfo struct {
	rootOf map[*callgraph.Node]string
}

// hotCache memoizes the traversal per call graph; RunAll invokes the
// analyzer once per package with the same shared graph and allow index.
var hotCache = map[*callgraph.Graph]*hotInfo{}

func run(pass *analysis.Pass) error {
	g := pass.Graph
	if g == nil {
		return nil
	}
	info := hotOf(g, pass.Allows())
	for _, key := range g.Keys() {
		n := g.Lookup(key)
		if n.Unit.Pkg != pass.Pkg || n.Facts == nil {
			continue
		}
		root, ok := info.rootOf[n]
		if !ok {
			continue
		}
		for _, a := range n.Facts.Allocs {
			pass.Reportf(a.Pos,
				"%s on the hot path (reachable from //simcheck:hotpath root %s); hoist or pool it, or mark the calling edge //simcheck:allow hotalloc",
				a.Desc, root)
		}
	}
	return nil
}

// hotOf walks the graph from every hotpath root, skipping dynamic edges
// and edges whose call site carries an allow directive.
func hotOf(g *callgraph.Graph, allows *analysis.AllowIndex) *hotInfo {
	if i, ok := hotCache[g]; ok {
		return i
	}
	info := &hotInfo{rootOf: map[*callgraph.Node]string{}}
	var visit func(m *callgraph.Node, root string)
	visit = func(m *callgraph.Node, root string) {
		if _, seen := info.rootOf[m]; seen {
			return
		}
		info.rootOf[m] = root
		for _, e := range m.Edges {
			if e.Kind == callgraph.EdgeDynamic {
				continue
			}
			if allows.Allowed(m.Unit.Files, e.Pos, "hotalloc") {
				continue
			}
			for _, c := range g.Callees(e) {
				visit(c, root)
			}
		}
	}
	for _, key := range g.Keys() {
		n := g.Lookup(key)
		if isRoot(n) {
			visit(n, n.Key)
		}
	}
	hotCache[g] = info
	return info
}

// isRoot reports whether the declaration's doc comment carries the
// hotpath directive.
func isRoot(n *callgraph.Node) bool {
	if n.Decl.Doc == nil {
		return false
	}
	for _, c := range n.Decl.Doc.List {
		if strings.HasPrefix(c.Text, "//simcheck:hotpath") {
			return true
		}
	}
	return false
}
