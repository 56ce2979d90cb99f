// Package callgraph builds a module-wide, type-checked call graph over the
// packages the simcheck loader produced, plus a per-function facts layer
// (lock operations, blocking operations, allocation sites, wall-clock and
// map-order taint) that the interprocedural analyzers — lockorder,
// hotalloc, and the taint-consuming upgrades of nodeterm and maporder —
// walk across package boundaries.
//
// The graph is deliberately conservative and deliberately simple:
//
//   - Static dispatch (direct calls to declared functions and methods)
//     resolves exactly.
//   - Interface method calls resolve by class-hierarchy approximation:
//     every module method with the same name and parameter count is a
//     candidate callee.
//   - Calls through function values resolve to every module function or
//     method whose value was taken somewhere (address-taken) with a
//     matching parameter count. Function literals are not tracked as
//     dynamic targets; instead a literal's body is attributed to the
//     function that lexically encloses it, which over-approximates in the
//     right direction for facts.
//
// Because the loader type-checks each directory as its own unit, the same
// package can be represented by distinct *types.Package objects (its own
// unit versus the copy imported by another unit). Nodes are therefore
// keyed by stable strings — "pkgpath.Func" and "pkgpath.(Recv).Method" —
// rather than by object identity.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Unit is one type-checked package as produced by the analysis loader.
type Unit struct {
	Path  string // import path used for scoping (test units share the dir's path)
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// EdgeKind classifies how a call site was resolved.
type EdgeKind int

const (
	// EdgeStatic is a direct call to a declared function or method.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is a call through an interface method, resolved
	// conservatively to every same-name same-arity module method.
	EdgeInterface
	// EdgeDynamic is a call through a function value, resolved
	// conservatively to every address-taken module function of matching
	// arity.
	EdgeDynamic
)

// Edge is one call site inside a node's body (closures included).
type Edge struct {
	Pos    token.Pos
	Callee string // node key; resolved lazily for interface/dynamic calls
	Kind   EdgeKind
	Name   string // callee method/function name as written at the site
	// RecvCanon is the canonical form of the receiver expression at the
	// call site ("" when there is none or it cannot be canonicalized); the
	// facts layer uses it to re-root the callee's receiver-relative lock
	// identities into the caller's frame.
	RecvCanon string
}

// Node is one declared function or method. Function-literal bodies are
// attributed to the enclosing declaration.
type Node struct {
	Key   string
	Func  *types.Func
	Decl  *ast.FuncDecl
	Unit  *Unit
	Edges []*Edge // in source order
	// RecvRoot is "(pkgpath.Type)" for methods, "" for plain functions;
	// lock identities inside the body are expressed relative to it.
	RecvRoot string

	Facts *Facts
}

// Graph is the module-wide call graph.
type Graph struct {
	Fset  *token.FileSet
	Nodes map[string]*Node
	keys  []string // sorted node keys, for deterministic iteration

	// methodIndex maps name\x00arity to the keys of all module methods,
	// for interface-call resolution; dynIndex maps arity to address-taken
	// function keys.
	methodIndex map[string][]string
	dynIndex    map[int][]string

	transAcq  map[*Node][]LockID
	blockW    map[*Node]*Witness
	summaries map[*Node]*Summary
}

// Keys returns the node keys in sorted order.
func (g *Graph) Keys() []string { return g.keys }

// Lookup returns the node for a key, or nil.
func (g *Graph) Lookup(key string) *Node { return g.Nodes[key] }

// FuncKey renders the stable node key of a declared function or method.
func FuncKey(obj *types.Func) string {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name := recvTypeName(sig.Recv().Type()); name != "" {
			return pkg + ".(" + name + ")." + obj.Name()
		}
	}
	return pkg + "." + obj.Name()
}

// recvTypeName names the receiver's base type ("" for anonymous).
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// arity counts a signature's parameters (variadic counts as one).
func arity(sig *types.Signature) int {
	if sig == nil {
		return -1
	}
	return sig.Params().Len()
}

// Build constructs the graph over the given units. Deterministic: units
// are processed in the order given (the callers sort them), files and
// declarations in source order.
func Build(fset *token.FileSet, units []*Unit) *Graph {
	g := &Graph{
		Fset:        fset,
		Nodes:       map[string]*Node{},
		methodIndex: map[string][]string{},
		dynIndex:    map[int][]string{},
		transAcq:    map[*Node][]LockID{},
		blockW:      map[*Node]*Witness{},
		summaries:   map[*Node]*Summary{},
	}
	// First pass: create nodes and the method/dynamic indices.
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := FuncKey(obj)
				n := &Node{Key: key, Func: obj, Decl: fd, Unit: u}
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
					if name := recvTypeName(sig.Recv().Type()); name != "" && obj.Pkg() != nil {
						n.RecvRoot = "(" + obj.Pkg().Path() + "." + name + ")"
					}
					mk := obj.Name() + "\x00" + itoa(arity(sig))
					g.methodIndex[mk] = append(g.methodIndex[mk], key)
				}
				// Later units win on key collisions (should not happen for
				// well-formed modules; test units have distinct pkg paths).
				g.Nodes[key] = n
			}
		}
	}
	// Second pass: edges, address-taken functions, and local facts.
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := g.Nodes[FuncKey(obj)]
				if n == nil || n.Decl != fd {
					continue
				}
				canon := newCanonicalizer(n)
				g.scanBody(n, canon)
				n.Facts = localFacts(g.Fset, n, canon)
			}
		}
	}
	g.keys = make([]string, 0, len(g.Nodes))
	for k := range g.Nodes {
		g.keys = append(g.keys, k)
	}
	sort.Strings(g.keys)
	return g
}

// scanBody records call edges and address-taken functions under n's body.
func (g *Graph) scanBody(n *Node, canon *canonicalizer) {
	u := n.Unit
	// calledIdents collects the idents naming the function actually being
	// called, so the address-taken scan below can tell a call from a value
	// use of the same function.
	calledIdents := map[*ast.Ident]bool{}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			calledIdents[fun] = true
		case *ast.SelectorExpr:
			calledIdents[fun.Sel] = true
		}
		g.addCall(n, u, canon, call)
		return true
	})
	// Address-taken scan: uses of declared functions outside call-function
	// position become dynamic-dispatch candidates.
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok || calledIdents[id] {
			return true
		}
		obj, ok := u.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		sig, _ := obj.Type().(*types.Signature)
		key := FuncKey(obj)
		if _, exists := g.Nodes[key]; exists {
			a := arity(sig)
			if !contains(g.dynIndex[a], key) {
				g.dynIndex[a] = append(g.dynIndex[a], key)
			}
		}
		return true
	})
}

// addCall classifies one call site into an edge (or ignores it: builtin
// calls, type conversions, immediately-invoked literals).
func (g *Graph) addCall(n *Node, u *Unit, canon *canonicalizer, call *ast.CallExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := u.Info.Uses[fun]
		if f, ok := obj.(*types.Func); ok {
			n.Edges = append(n.Edges, &Edge{
				Pos: call.Pos(), Callee: FuncKey(f), Kind: EdgeStatic, Name: f.Name(),
			})
			return
		}
		// Builtins (append, make, ...), type conversions: not edges.
		return
	case *ast.SelectorExpr:
		if sel, ok := u.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return
			}
			recvCanon, _ := canon.expr(fun.X)
			if types.IsInterface(sel.Recv()) {
				n.Edges = append(n.Edges, &Edge{
					Pos: call.Pos(), Kind: EdgeInterface, Name: f.Name(),
					Callee:    interfaceKey(f),
					RecvCanon: recvCanon,
				})
				return
			}
			n.Edges = append(n.Edges, &Edge{
				Pos: call.Pos(), Callee: FuncKey(f), Kind: EdgeStatic,
				Name: f.Name(), RecvCanon: recvCanon,
			})
			return
		}
		// Package-qualified function: pkg.F(...).
		if f, ok := u.Info.Uses[fun.Sel].(*types.Func); ok {
			n.Edges = append(n.Edges, &Edge{
				Pos: call.Pos(), Callee: FuncKey(f), Kind: EdgeStatic, Name: f.Name(),
			})
			return
		}
		// Type conversion through a qualified type: ignore.
		return
	case *ast.FuncLit:
		// Immediately-invoked literal: its body is already attributed to n.
		return
	default:
		// Call through a function value. Resolve lazily by arity.
		tv, ok := u.Info.Types[call.Fun]
		if !ok {
			return
		}
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return
		}
		n.Edges = append(n.Edges, &Edge{
			Pos: call.Pos(), Kind: EdgeDynamic, Name: "",
			Callee: "\x00dyn" + itoa(arity(sig)),
		})
	}
}

// interfaceKey is the placeholder callee key of an interface call, holding
// what resolution needs: the method name and arity.
func interfaceKey(f *types.Func) string {
	sig, _ := f.Type().(*types.Signature)
	return "\x00iface" + f.Name() + "\x00" + itoa(arity(sig))
}

// Callees resolves an edge to its candidate callee nodes, in deterministic
// order. Static edges yield zero or one node (zero when the callee is
// outside the module, e.g. a stdlib function).
func (g *Graph) Callees(e *Edge) []*Node {
	switch e.Kind {
	case EdgeStatic:
		if n := g.Nodes[e.Callee]; n != nil {
			return []*Node{n}
		}
		return nil
	case EdgeInterface:
		rest := strings.TrimPrefix(e.Callee, "\x00iface")
		return g.nodesFor(g.methodIndex[rest])
	case EdgeDynamic:
		a := atoi(strings.TrimPrefix(e.Callee, "\x00dyn"))
		return g.nodesFor(g.dynIndex[a])
	}
	return nil
}

// nodesFor maps keys to nodes, sorted by key for determinism.
func (g *Graph) nodesFor(keys []string) []*Node {
	out := make([]*Node, 0, len(keys))
	seen := map[string]bool{}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	for _, k := range sorted {
		if seen[k] {
			continue
		}
		seen[k] = true
		if n := g.Nodes[k]; n != nil {
			out = append(out, n)
		}
	}
	return out
}

// contains reports whether s holds v.
func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func itoa(n int) string { return strconv.Itoa(n) }

func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}
