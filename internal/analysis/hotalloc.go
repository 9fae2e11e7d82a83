package analysis

// hotpath-alloc: no per-call allocation in the packed BLAS3 kernels or the
// scheduler's task-execution path.
//
// The hot set is computed by reachability over the module call graph from
// the roots below (the Goto-style Dgemm driver, its pack/microkernel
// helpers, and sched.runTask — the code that runs once per macro-block
// iteration or per task). Inside a hot function the check flags every
// construct that can allocate per call:
//
//   - heap-bound composite literals — &T{}, slice and map literals — and
//     new(T) (plain struct/array value literals stay on the stack and are
//     not flagged; their boxing is caught by the conversion rule);
//   - make of a slice, map or channel;
//   - append to a slice that was not created with an explicit capacity
//     (make([]T, len, cap)) in the same function;
//   - implicit or explicit conversion of a concrete, non-pointer-shaped
//     value (ints, strings, structs) to an interface — including variadic
//     ...any arguments, the fmt.Errorf trap;
//   - func literals that capture variables (a capturing closure is heap-
//     allocated each time the literal is evaluated; inside a loop that is
//     per-iteration).
//
// internal/scratch is the sanctioned allocator: its functions are neither
// flagged nor traversed (Dgemm's pack buffers come from there by design).
// Arguments of the builtin panic are exempt — precondition panics are the
// cold path and deliberately carry rich fmt.Errorf messages. Anything else
// needs a `// calint:ignore hotpath-alloc -- reason` or a baseline entry.
// The runtime complement is the AllocsPerRun gate in CI (alloc_test.go in
// internal/blas and factor): this check explains *where* an allocation
// crept in; the gate proves the steady state is allocation-free.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// hotRoots names the functions whose transitive callees form the hot set.
// A root matches by function name within a module-relative package tree,
// so fixtures masqueraded under internal/blas/... participate. Extend this
// list when a new subsystem gains a per-iteration path (doc/ANALYSIS.md
// explains the workflow).
var hotRoots = []struct{ pkg, name string }{
	{"internal/blas", "Dgemm"},
	{"internal/blas", "packA"},
	{"internal/blas", "packB"},
	{"internal/blas", "macroKernel"},
	// CALU's L and U tasks pack their blocks once, and every S task
	// multiplies the packed operands.
	{"internal/blas", "Pack"},
	{"internal/blas", "GemmPacked"},
	// The recursive triangular drivers run inside every CALU L/U task and
	// every Larfb (CAQR S tasks, GEQR3 nodes).
	{"internal/blas", "Dtrsm"},
	{"internal/blas", "Dtrmm"},
	{"internal/sched", "runTask"},
	// The row-interchange loop runs in every CALU U, finalize and
	// left-swap task and in every RGETF2 step.
	{"internal/lapack", "LASWP"},
	// ABFT checksum verification runs once per panel inside the task graph
	// (V and finalize tasks); an allocation here taxes every verified
	// factorization and shows up in the cabench verify-overhead gate.
	{"internal/abft", "ColumnSums"},
	{"internal/abft", "AccumulateLSums"},
	{"internal/abft", "VerifyLUColumns"},
	{"internal/abft", "VerifyLUPanel"},
	{"internal/abft", "VerifyGEPPPanel"},
	{"internal/abft", "VerifyQRColumns"},
}

// hotExcludedPkgs are packages whose functions are the sanctioned
// allocation sites: not flagged, not traversed through.
var hotExcludedPkgs = []string{"internal/scratch"}

func hotpathAllocCheck() *ProgramCheck {
	return &ProgramCheck{
		Name: "hotpath-alloc",
		Doc:  "functions reachable from Dgemm's pack/kernel loops and sched.runTask must not allocate per call",
		Run:  runHotpathAlloc,
	}
}

func runHotpathAlloc(pass *ProgramPass) {
	g := pass.CallGraph()

	var roots []*types.Func
	for _, node := range g.Nodes {
		rel := node.Pkg.Rel()
		for _, r := range hotRoots {
			if node.Func.Name() == r.name && underTree(rel, r.pkg) {
				roots = append(roots, node.Func)
			}
		}
	}
	if len(roots) == 0 {
		return
	}
	reached := g.Reachable(roots, func(e CallEdge) bool {
		if node := g.Node(e.Callee); node != nil && hotExcluded(node.Pkg.Rel()) {
			return false
		}
		return true
	})

	// Deterministic function order.
	var hot []*FuncNode
	for f := range reached {
		if node := g.Node(f); node != nil && node.Decl.Body != nil && !hotExcluded(node.Pkg.Rel()) {
			hot = append(hot, node)
		}
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i].Decl.Pos() < hot[j].Decl.Pos() })

	for _, node := range hot {
		s := &hotScanner{
			pass:     pass,
			info:     node.Pkg.Info,
			chain:    Chain(reached, node.Func),
			presized: collectPresized(node.Pkg.Info, node.Decl.Body),
		}
		s.walk(node.Decl.Body, 0)
	}
}

// underTree reports rel == pkg or rel under pkg/.
func underTree(rel, pkg string) bool {
	return rel == pkg || strings.HasPrefix(rel, pkg+"/")
}

func hotExcluded(rel string) bool {
	for _, p := range hotExcludedPkgs {
		if underTree(rel, p) {
			return true
		}
	}
	return false
}

// collectPresized gathers slice variables assigned from a make with an
// explicit capacity anywhere in the function; appends to them are the
// sanctioned grow-into-capacity pattern.
func collectPresized(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	presized := make(map[types.Object]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "make" {
			return
		}
		if _, ok := info.Uses[id].(*types.Builtin); !ok {
			return
		}
		lid, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		if obj := info.Defs[lid]; obj != nil {
			presized[obj] = true
		} else if obj := info.Uses[lid]; obj != nil {
			presized[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return presized
}

// hotScanner walks one hot function body reporting allocation sites.
type hotScanner struct {
	pass     *ProgramPass
	info     *types.Info
	chain    string
	presized map[types.Object]bool
}

// walk recursively visits n; loopDepth counts enclosing for/range loops so
// closure reports can say "per iteration".
func (s *hotScanner) walk(n ast.Node, loopDepth int) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Init != nil {
				s.walk(n.Init, loopDepth)
			}
			if n.Cond != nil {
				s.walk(n.Cond, loopDepth)
			}
			if n.Post != nil {
				s.walk(n.Post, loopDepth+1)
			}
			s.walk(n.Body, loopDepth+1)
			return false
		case *ast.RangeStmt:
			s.walk(n.X, loopDepth)
			s.walk(n.Body, loopDepth+1)
			return false
		case *ast.CallExpr:
			return s.call(n, loopDepth)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					s.report(n, loopDepth, "&T{} escapes to the heap; reuse a value or a scratch buffer")
					// Visit the literal's elements without re-flagging it.
					for _, el := range lit.Elts {
						s.walk(el, loopDepth)
					}
					return false
				}
			}
			return true
		case *ast.CompositeLit:
			// A struct or array *value* literal lives on the stack (boxing
			// into interfaces is caught by the conversion rule); slice and
			// map literals always allocate their backing store.
			switch s.litType(n).(type) {
			case *types.Slice:
				s.report(n, loopDepth, "slice literal allocates its backing array; hoist it or use internal/scratch")
			case *types.Map:
				s.report(n, loopDepth, "map literal allocates; hoist it out of the hot path")
			}
			// Still visit element expressions (nested closures etc.).
			return true
		case *ast.FuncLit:
			if capt := s.captures(n); len(capt) > 0 {
				if loopDepth > 0 {
					s.report(n, loopDepth, "closure captures %s inside a loop — one heap allocation per iteration; hoist the func value or pass parameters", strings.Join(capt, ", "))
				} else {
					s.report(n, loopDepth, "closure captures %s — heap allocation on every call; hoist the func value or pass parameters", strings.Join(capt, ", "))
				}
			}
			s.walk(n.Body, loopDepth)
			return false
		}
		return true
	})
}

// call handles one call expression; returns whether Inspect should descend.
func (s *hotScanner) call(call *ast.CallExpr, loopDepth int) bool {
	// Builtin and conversion dispatch.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := s.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "panic":
				// Cold path: precondition panics may allocate their message.
				return false
			case "append":
				s.checkAppend(call, loopDepth)
				for _, a := range call.Args[1:] {
					s.walk(a, loopDepth)
				}
				return false
			case "make":
				s.checkMake(call, loopDepth)
				return true
			case "new":
				s.report(call, loopDepth, "new(T) allocates; reuse a scratch buffer or an existing value")
				return true
			}
		}
	}
	// Explicit conversion T(x)?
	if tv, ok := s.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.IsInterface(tv.Type) {
			s.checkIfaceConv(call.Args[0], call, loopDepth)
		}
		return true
	}
	// Ordinary call: implicit interface conversions of arguments.
	s.checkCallArgs(call, loopDepth)
	return true
}

// checkAppend flags appends to slices without an in-function explicit-cap
// make.
func (s *hotScanner) checkAppend(call *ast.CallExpr, loopDepth int) {
	if len(call.Args) == 0 {
		return
	}
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		if obj := s.info.Uses[id]; obj != nil && s.presized[obj] {
			return
		}
	}
	s.report(call, loopDepth, "append without preallocated capacity may reallocate per call; make([]T, 0, n) the backing slice first")
}

// checkMake flags slice/map/chan creation.
func (s *hotScanner) checkMake(call *ast.CallExpr, loopDepth int) {
	if len(call.Args) == 0 {
		return
	}
	tv, ok := s.info.Types[call.Args[0]]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		s.report(call, loopDepth, "make(map) allocates; hoist the map or use a preallocated structure")
	case *types.Chan:
		s.report(call, loopDepth, "make(chan) allocates; hoist channel creation out of the hot path")
	case *types.Slice:
		s.report(call, loopDepth, "make([]T) allocates; use internal/scratch or hoist the buffer")
	}
}

// checkCallArgs flags the first argument implicitly converted to an
// interface parameter (one report per call keeps fmt.Errorf-style sites to
// a single diagnostic).
func (s *hotScanner) checkCallArgs(call *ast.CallExpr, loopDepth int) {
	tv, ok := s.info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis.IsValid() {
		return // spread: no element-wise conversion
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		if s.checkIfaceConv(arg, call, loopDepth) {
			return
		}
	}
}

// checkIfaceConv reports arg if converting it to an interface allocates;
// returns whether it reported.
func (s *hotScanner) checkIfaceConv(arg ast.Expr, at ast.Node, loopDepth int) bool {
	tv, ok := s.info.Types[arg]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	t := tv.Type
	if types.IsInterface(t) || pointerShaped(t) {
		return false
	}
	s.report(at, loopDepth, "%s value converted to interface allocates (boxing); avoid interface arguments on the hot path", t.String())
	return true
}

// pointerShaped reports types whose interface representation reuses the
// value word without boxing: pointers, channels, maps, funcs and unsafe
// pointers.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// litType resolves a composite literal's underlying type.
func (s *hotScanner) litType(lit *ast.CompositeLit) types.Type {
	tv, ok := s.info.Types[lit]
	if !ok || tv.Type == nil {
		return nil
	}
	return tv.Type.Underlying()
}

// captures lists (sorted) names of variables the literal references but
// does not declare — the closure's captured environment.
func (s *hotScanner) captures(lit *ast.FuncLit) []string {
	seen := make(map[string]bool)
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := s.info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		// Package-level vars are not captured (no allocation).
		if v.Parent() == v.Pkg().Scope() {
			return true
		}
		// Declared inside the literal (params, locals): not a capture.
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		if !seen[v.Name()] {
			seen[v.Name()] = true
			names = append(names, v.Name())
		}
		return true
	})
	sort.Strings(names)
	return names
}

func (s *hotScanner) report(n ast.Node, loopDepth int, format string, args ...any) {
	msg := "allocation in hot path (" + s.chain + "): " + format + " (doc/ANALYSIS.md#hotpath-alloc)"
	s.pass.Reportf(n.Pos(), msg, args...)
}
