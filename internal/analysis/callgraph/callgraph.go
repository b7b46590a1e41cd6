// Package callgraph builds a per-package call graph over type-checked
// syntax — the whole-program substrate under hotpathalloc (and, later,
// deeper packetrelease/shardownership passes). Like the rest of burstlint
// it is stdlib-only: nodes are *types.Func objects for the package's
// declared functions and methods, and edges come from three resolution
// rules:
//
//   - Static calls: f() and pkg-level function references resolve through
//     types.Info.Uses.
//   - Method calls: x.M() on a concrete receiver resolves through the
//     selection's method object (types.MethodSet semantics — promoted and
//     pointer-receiver methods included).
//   - Interface dispatch: x.M() where x is an interface adds an edge to
//     M's implementation on every named type declared in this package
//     whose method set satisfies the interface (its implements-set). The
//     dynamic callee might live in another package; that callee is covered
//     when its own package is analyzed, since roots are declared per
//     package.
//
// Soundness limits (documented in DESIGN.md §14): calls through function
// values (fields, parameters, variables of func type) and reflection are
// not traversed — the callee is unresolvable without a points-to analysis.
// Function literals are treated as part of their enclosing declaration:
// their bodies contribute edges to the enclosing function, which
// over-approximates (the closure may run elsewhere or never) but never
// misses a callee that does run on the hot path it was built on.
package callgraph

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Graph is the package-local call graph.
type Graph struct {
	pkg  *types.Package
	info *types.Info

	// decls maps each declared function/method object to its syntax.
	decls map[*types.Func]*ast.FuncDecl
	// edges maps caller -> callees (declared in this package only).
	edges map[*types.Func][]*types.Func
	// methodIndex: method name -> declared methods of that name, for
	// interface-dispatch expansion.
	methodIndex map[string][]*types.Func
}

// Build assembles the graph for one type-checked package.
func Build(pkg *types.Package, info *types.Info, files []*ast.File) *Graph {
	g := &Graph{
		pkg:         pkg,
		info:        info,
		decls:       make(map[*types.Func]*ast.FuncDecl),
		edges:       make(map[*types.Func][]*types.Func),
		methodIndex: make(map[string][]*types.Func),
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls[fn] = fd
			if fd.Recv != nil {
				g.methodIndex[fn.Name()] = append(g.methodIndex[fn.Name()], fn)
			}
		}
	}
	for fn, fd := range g.decls {
		g.addEdges(fn, fd.Body)
	}
	return g
}

// Decl returns the syntax of a function declared in this package, or nil.
func (g *Graph) Decl(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

// Functions returns every declared function/method, sorted by name for
// deterministic iteration.
func (g *Graph) Functions() []*types.Func {
	out := make([]*types.Func, 0, len(g.decls))
	for fn := range g.decls {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return FuncName(out[i]) < FuncName(out[j]) })
	return out
}

// addEdges walks one function body recording resolvable callees.
func (g *Graph) addEdges(from *types.Func, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, callee := range g.Callees(call) {
			g.edges[from] = append(g.edges[from], callee)
		}
		return true
	})
}

// Callees resolves the package-local functions a call may invoke: one for
// a static or concrete-method call, the implements-set expansion for an
// interface dispatch, nothing for builtins, conversions, and calls through
// function values.
func (g *Graph) Callees(call *ast.CallExpr) []*types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := g.info.Uses[fun].(*types.Func); ok {
			if _, declared := g.decls[fn]; declared {
				return []*types.Func{fn}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := g.info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return g.implementers(sel.Recv(), fn.Name())
			}
			if _, declared := g.decls[fn]; declared {
				return []*types.Func{fn}
			}
			return nil
		}
		// Package-qualified call (pkg.F) or method expression.
		if fn, ok := g.info.Uses[fun.Sel].(*types.Func); ok {
			if _, declared := g.decls[fn]; declared {
				return []*types.Func{fn}
			}
		}
	}
	return nil
}

// implementers returns the declared methods named name on every named type
// in this package whose method set (value or pointer) satisfies iface.
func (g *Graph) implementers(iface types.Type, name string) []*types.Func {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, m := range g.methodIndex[name] {
		recv := m.Type().(*types.Signature).Recv().Type()
		// The pointer type's method set is the superset; checking it covers
		// both value- and pointer-receiver implementations.
		base := recv
		if ptr, ok := recv.(*types.Pointer); ok {
			base = ptr.Elem()
		}
		if types.Implements(types.NewPointer(base), it) || types.Implements(base, it) {
			out = append(out, m)
		}
	}
	return out
}

// Reachable computes the closure of functions reachable from roots,
// mapping each reachable function to the root it was first discovered
// from (roots map to themselves). Traversal order is deterministic.
func (g *Graph) Reachable(roots []*types.Func) map[*types.Func]*types.Func {
	via := make(map[*types.Func]*types.Func)
	queue := make([]*types.Func, 0, len(roots))
	for _, r := range roots {
		if _, ok := g.decls[r]; !ok {
			continue
		}
		if _, seen := via[r]; seen {
			continue
		}
		via[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		root := via[fn]
		for _, callee := range g.edges[fn] {
			if _, seen := via[callee]; seen {
				continue
			}
			via[callee] = root
			queue = append(queue, callee)
		}
	}
	return via
}

// FuncName renders a function the way the root config names it: "Func"
// for package-level functions, "Type.Method" for methods.
func FuncName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if named, ok := recv.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// RootsByName resolves root specs ("Func", "Type.Method", or a bare
// method name matching every type's method of that name) against the
// declared functions. It also returns, in input order, the specs that
// matched no function.
func (g *Graph) RootsByName(specs []string) (roots []*types.Func, unmatched []string) {
	want := make(map[string]bool, len(specs))
	methodName := make(map[string]bool)
	for _, s := range specs {
		want[s] = true
		if !strings.Contains(s, ".") {
			methodName[s] = true
		}
	}
	hit := make(map[string]bool)
	for _, fn := range g.Functions() {
		if want[FuncName(fn)] || (methodName[fn.Name()] && fn.Type().(*types.Signature).Recv() != nil) {
			roots = append(roots, fn)
			// A method matched by its full name also satisfies a bare
			// spec of its method name, which would have matched it anyway.
			hit[FuncName(fn)], hit[fn.Name()] = true, true
		}
	}
	for _, s := range specs {
		if !hit[s] {
			unmatched = append(unmatched, s)
		}
	}
	return roots, unmatched
}
