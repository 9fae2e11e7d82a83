package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// schedPkg is the import-path suffix of the executor package.
const schedPkg = "internal/sched"

// ctxPropagationCheck enforces doc/CANCELLATION.md's propagation rules,
// whole-program:
//
//  1. Code with a context.Context in scope — a parameter of the function or
//     of an enclosing func literal, or a ctx-typed variable assigned
//     earlier (closures capturing ctx count) — must not call Pool.Submit:
//     the context-blind entry point silently severs the caller's
//     cancellation chain; SubmitCtx is the correct spelling. The call graph
//     extends the rule transitively: a ctx-bearing function must not call
//     a ctx-less module function that (through any chain of ctx-less
//     callees) reaches Pool.Submit, because the severing just moved one
//     frame down. A callee that itself takes a ctx is the barrier — the
//     caller hands the context over and the callee's behavior is its own
//     finding.
//  2. Library packages (anything under internal/ plus the public factor
//     package) must not mint contexts of their own with
//     context.Background() or context.TODO(): contexts flow in from the
//     caller. Documented ctx-free convenience wrappers are the intended
//     exception and carry a `// calint:ignore ctx-propagation` with their
//     rationale — an ignored Submit call also does not taint its callers.
func ctxPropagationCheck() *ProgramCheck {
	return &ProgramCheck{
		Name: "ctx-propagation",
		Doc:  "ctx-bearing code must use SubmitCtx (directly and transitively); library packages must not call context.Background/TODO",
		Run:  runCtxPropagation,
	}
}

func runCtxPropagation(pass *ProgramPass) {
	// Rule 2: no privately minted root contexts in library packages.
	for _, pkg := range pass.Packages() {
		if !isLibraryRel(pkg.Rel()) {
			continue
		}
		info := pkg.Info
		for _, file := range pkg.Syntax {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isPkgFunc(info, call, "context", "Background") {
					pass.Reportf(call.Pos(), "library package %s calls context.Background(); accept a ctx from the caller instead (doc/CANCELLATION.md)", pkg.Path)
				} else if isPkgFunc(info, call, "context", "TODO") {
					pass.Reportf(call.Pos(), "library package %s calls context.TODO(); accept a ctx from the caller instead (doc/CANCELLATION.md)", pkg.Path)
				}
				return true
			})
		}
	}

	// Rule 1, direct: Pool.Submit with a ctx in scope. The same walk seeds
	// the taint set: any function containing an unsuppressed Submit call.
	g := pass.CallGraph()
	tainted := make(map[*types.Func]bool)
	for f, node := range g.Nodes {
		if node.Decl.Body == nil {
			continue
		}
		info := node.Pkg.Info
		ctxVars := collectCtxVars(info, node.Decl)
		hasParam := funcHasCtxParam(info, node.Decl)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPoolSubmit(info, call) {
				return true
			}
			if pass.Suppressed("ctx-propagation", call.Pos()) {
				return true
			}
			tainted[f] = true
			if ctxInScopeAt(ctxVars, call.Pos()) {
				if hasParam {
					pass.Reportf(call.Pos(), "%s receives a context.Context but calls Pool.Submit, severing cancellation; use SubmitCtx (doc/CANCELLATION.md)", node.Decl.Name.Name)
				} else {
					pass.Reportf(call.Pos(), "%s has a context.Context in scope but calls Pool.Submit, severing cancellation; use SubmitCtx (doc/CANCELLATION.md)", node.Decl.Name.Name)
				}
			}
			return true
		})
	}

	// Taint propagation: calling a ctx-less tainted function taints the
	// caller; a ctx-bearing callee is the barrier.
	next := make(map[*types.Func]*types.Func) // example next hop toward Submit
	for changed := true; changed; {
		changed = false
		for f, node := range g.Nodes {
			if tainted[f] {
				continue
			}
			for _, e := range node.Calls {
				if tainted[e.Callee] && !sigHasCtxParam(e.Callee) {
					tainted[f] = true
					next[f] = e.Callee
					changed = true
					break
				}
			}
		}
	}

	// Rule 1, transitive: a ctx-bearing function calling into a tainted
	// ctx-less chain.
	for f, node := range g.Nodes {
		if !sigHasCtxParam(f) || node.Decl.Body == nil {
			continue
		}
		for _, e := range node.Calls {
			if !tainted[e.Callee] || sigHasCtxParam(e.Callee) {
				continue
			}
			pass.Reportf(e.Pos, "%s receives a context.Context but calls %s, which reaches Pool.Submit via %s, severing cancellation; thread the ctx through a *Ctx path (doc/CANCELLATION.md)", node.Decl.Name.Name, e.Callee.Name(), taintChain(next, e.Callee))
		}
	}
}

// taintChain renders the example path from f to the Submit call for the
// transitive message, e.g. "GEQRF → run → Pool.Submit".
func taintChain(next map[*types.Func]*types.Func, f *types.Func) string {
	var parts []string
	for cur := f; cur != nil && len(parts) < 8; cur = next[cur] {
		parts = append(parts, cur.Name())
	}
	parts = append(parts, "Pool.Submit")
	return strings.Join(parts, " → ")
}

// isLibraryRel reports whether a module-relative package path is part of
// the library surface the no-private-context rule covers: internal/... and
// factor (commands, examples and the repo root are free to mint root
// contexts).
func isLibraryRel(rel string) bool {
	return rel == "factor" || strings.HasPrefix(rel, "factor/") ||
		rel == "internal" || strings.HasPrefix(rel, "internal/")
}

// passRel returns the module-relative package path of a per-package pass.
func passRel(pass *Pass) string {
	if rest, ok := strings.CutPrefix(pass.PkgPath(), pass.pkg.ModulePath+"/"); ok {
		return rest
	}
	if pass.PkgPath() == pass.pkg.ModulePath {
		return ""
	}
	return pass.PkgPath()
}

// ctxVar is one context.Context-typed variable (parameter or local,
// including those of nested func literals) with its declaration position.
type ctxVar struct {
	pos token.Pos
}

// collectCtxVars gathers every ctx-typed variable declared anywhere in the
// function (the declaring ident's position orders it against call sites).
func collectCtxVars(info *types.Info, fn *ast.FuncDecl) []ctxVar {
	var vars []ctxVar
	ast.Inspect(fn, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := info.Defs[id].(*types.Var); ok && isContextType(v.Type()) {
			vars = append(vars, ctxVar{pos: id.Pos()})
		}
		return true
	})
	return vars
}

// ctxInScopeAt reports whether some ctx-typed variable is declared before
// pos (a flow approximation of lexical scope: good enough because ctx
// variables are overwhelmingly parameters or early assignments).
func ctxInScopeAt(vars []ctxVar, pos token.Pos) bool {
	for _, v := range vars {
		if v.pos < pos {
			return true
		}
	}
	return false
}

// funcHasCtxParam reports whether any parameter of fn (including unnamed
// ones) has type context.Context.
func funcHasCtxParam(info *types.Info, fn *ast.FuncDecl) bool {
	obj, ok := info.Defs[fn.Name].(*types.Func)
	if !ok {
		return false
	}
	return sigHasCtxParam(obj)
}

// sigHasCtxParam reports whether f's signature has a context.Context
// parameter.
func sigHasCtxParam(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isPoolSubmit reports a method call to (*sched.Pool).Submit.
func isPoolSubmit(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return false
	}
	f, ok := selection.Obj().(*types.Func)
	if !ok || f.Name() != "Submit" || f.Pkg() == nil {
		return false
	}
	if !hasPathSuffix(f.Pkg().Path(), schedPkg) {
		return false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}
