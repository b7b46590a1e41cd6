// Package hotpathalloc is the line-precise compile-time version of the
// AllocsPerRun budget tests: it classifies allocation sites and reports
// every one reachable — over the package's call graph — from a hot-path
// root. Roots are the per-event method names (Send/Recv/Enqueue/Dequeue/
// OnEvent) plus the explicit per-package entries in Config.HotPathRoots:
// the scheduler's dispatch loop, the timing-wheel and burst-train kernels,
// the packet pool's get/put. An explicit root that matches no function in
// its package is reported too, so a renamed or deleted entry point cannot
// linger in the config guarding nothing.
//
// Flagged site classes:
//
//   - make and new builtins
//   - &T{...} — a composite literal whose address is taken escapes
//   - slice and map composite literals (their backing store is heap-bound
//     in practice; plain struct value literals are not flagged — they stay
//     in registers or on the stack)
//   - append — allocation is amortized but real; pre-size or annotate
//   - function literals that capture variables (closure header alloc)
//   - string concatenation and string<->[]byte/[]rune conversions
//   - variadic calls that box arguments into a fresh slice (fmt.Errorf on
//     an error path is the classic offender)
//   - explicit conversions of non-pointer concrete values to interfaces
//   - range over a map (hidden iterator, and nondeterministic anyway)
//
// The classifier has no escape analysis, so some flagged sites would in
// fact stay on the stack; that is the point of the waiver. Deliberate
// allocations — lazy geometric ring growth, pool refill — are annotated
// in place:
//
//	//burst:alloc-ok <why this allocation is acceptable>
//
// which keeps every exception a documented, counted decision rather than
// an invisible regression.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"tcpburst/internal/analysis"
	"tcpburst/internal/analysis/callgraph"
)

// Analyzer is the hot-path allocation checker. Its suppression token is
// the short form alloc-ok rather than hotpathalloc-ok.
var Analyzer = &analysis.Analyzer{
	Name:     "hotpathalloc",
	Doc:      "no allocation sites reachable from hot-path roots; annotate deliberate ones with //burst:alloc-ok",
	Suppress: "alloc-ok",
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	cfg := analysis.Default
	path := pass.Pkg.Path()
	if !cfg.SimPackage(path) {
		return nil, nil
	}
	g := callgraph.Build(pass.Pkg, pass.TypesInfo, pass.Files)
	explicit := cfg.HotPathRootList(path)
	roots, unmatched := g.RootsByName(append(slices.Clip(explicit), cfg.HotPathFuncs...))
	// A bare per-event method name need not exist in every package, but an
	// explicit root that names nothing guards nothing: it is stale config.
	for _, spec := range unmatched {
		if slices.Contains(explicit, spec) {
			pass.Reportf(pass.Files[0].Package,
				"hot-path root %s matches no function in %s; remove it from HotPathRoots or fix the name", spec, path)
		}
	}
	if len(roots) == 0 {
		return nil, nil
	}
	via := g.Reachable(roots)
	for _, fn := range g.Functions() {
		root, hot := via[fn]
		if !hot {
			continue
		}
		scanFunc(pass, g.Decl(fn), fn, root)
	}
	return nil, nil
}

// scanFunc reports every allocation site in one hot function's body.
// Function-literal bodies are not descended into here: the closure header
// is the allocation attributed to this function, and any per-event work
// the literal does shows up through the call-graph edges its body
// contributes.
func scanFunc(pass *analysis.Pass, decl *ast.FuncDecl, fn, root *types.Func) {
	report := func(pos token.Pos, kind string) {
		pass.Reportf(pos,
			"hot-path allocation (%s) in %s, reachable from root %s; remove it or annotate //burst:alloc-ok <reason>",
			kind, callgraph.FuncName(fn), callgraph.FuncName(root))
	}
	info := pass.TypesInfo
	// A literal under & is one allocation, not two: note the literal so the
	// CompositeLit case below doesn't re-report it.
	escaping := make(map[*ast.CompositeLit]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capturesLocals(info, n) {
				report(n.Pos(), "closure capturing locals")
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					escaping[lit] = true
					report(n.Pos(), "escaping composite literal")
				}
			}
		case *ast.CompositeLit:
			if escaping[n] {
				return true
			}
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal")
			case *types.Map:
				report(n.Pos(), "map literal")
			}
		case *ast.RangeStmt:
			if n.X != nil {
				if _, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok {
					report(n.For, "map iteration")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n.X)) {
				report(n.OpPos, "string concatenation")
			}
		case *ast.CallExpr:
			classifyCall(info, n, report)
		}
		return true
	})
}

func classifyCall(info *types.Info, call *ast.CallExpr, report func(token.Pos, string)) {
	if name, ok := analysis.IsBuiltinCall(info, call); ok {
		switch name {
		case "make":
			report(call.Pos(), "make")
		case "new":
			report(call.Pos(), "new")
		case "append":
			report(call.Pos(), "append growth")
		}
		return
	}
	// Conversion T(x): string<->bytes/runes and concrete-to-interface.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := info.TypeOf(call.Fun)
		src := info.TypeOf(call.Args[0])
		if src == nil || dst == nil {
			return
		}
		switch {
		case isString(dst) && isByteOrRuneSlice(src), isByteOrRuneSlice(dst) && isString(src):
			report(call.Pos(), "string conversion")
		case types.IsInterface(dst) && !types.IsInterface(src) && !isPointerLike(src):
			report(call.Pos(), "interface boxing")
		}
		return
	}
	// Variadic call boxing: passing k>=1 values into a ...T slot builds a
	// fresh slice; f(s...) forwards an existing one.
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok && sig.Variadic() && call.Ellipsis == token.NoPos {
		if len(call.Args) >= sig.Params().Len() {
			report(call.Pos(), "variadic boxing")
		}
	}
}

// capturesLocals reports whether the literal references any variable
// declared outside its own body but inside the enclosing function —
// package-level state and its own params/results don't force a closure
// allocation, captured locals do.
func capturesLocals(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.Parent() == nil {
			return true
		}
		// Package-level vars have the package scope as parent.
		if v.Parent() == v.Pkg().Scope() {
			return true
		}
		// Declared inside the literal (params included): not a capture.
		if lit.Pos() <= v.Pos() && v.Pos() < lit.End() {
			return true
		}
		captured = true
		return false
	})
	return captured
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// isPointerLike reports types whose interface conversion stores the value
// directly in the iface word — no box allocation.
func isPointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Slice:
		// Slices don't fit in one word, but a conversion of a slice to an
		// interface is flagged as what it is elsewhere; treat funcs/chans/
		// maps/pointers as free.
		_, isSlice := t.Underlying().(*types.Slice)
		return !isSlice
	}
	return false
}
