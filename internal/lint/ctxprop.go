package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ctxpropScope lists the packages whose call stacks must stay
// cancellable: the pipeline stages and everything they call into that
// does per-voxel / per-element / per-iteration work.
var ctxpropScope = []string{
	"internal/core",
	"internal/fem",
	"internal/solver",
	"internal/classify",
	"internal/surface",
	"internal/register",
	"internal/figures",
	"internal/service",
}

// ctxprop upgrades the old ctxflow signature checks to flow checks: in
// a pipeline-package function whose first parameter is a
// context.Context, that parameter (or a context derived from it via
// context.With*, span starts, etc.) must be the context that flows to
// every context-accepting callee. Two ways to break the chain are
// findings:
//
//   - dropped ctx: a call receives a context variable, or a fresh
//     context.Background()/TODO(), that does not derive from the
//     function's own ctx parameter — cancellation silently stops
//     propagating at that frame;
//   - ctx shadowing: a context-typed variable is (re)assigned from a
//     source unrelated to the ctx parameter, so every later use of the
//     shadowed name looks derived but is not.
//
// Independent of parameter flow, minting fresh root contexts with
// context.Background()/TODO() is forbidden everywhere in scope outside
// the nil-context defaulting idiom: every operation has one entry
// point, and it takes the caller's context.
type ctxprop struct{}

func (ctxprop) Name() string { return "ctxprop" }

func (ctxprop) Doc() string {
	return "a context.Context parameter must flow (directly or via derived contexts) " +
		"to every context-capable callee in the pipeline packages (core, fem, solver, " +
		"classify, surface, register, figures, service); dropped contexts and context " +
		"shadowing are findings, and context.Background()/TODO() stay forbidden " +
		"outside nil-context defaulting"
}

func (c ctxprop) Run(pkg *Package) []Finding {
	if !inScope(pkg.RelPath, ctxpropScope) {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, c.checkDecl(pkg, fd)...)
		}
	}
	return out
}

func (c ctxprop) checkDecl(pkg *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	flag := func(pos token.Pos, msg string) {
		out = append(out, Finding{Pos: pkg.Fset.Position(pos), Analyzer: "ctxprop", Msg: msg})
	}
	ctxParam := contextParamObj(pkg, fd)

	derived := derivedContexts(pkg, fd, ctxParam)

	// handled marks mint calls already reported through a more specific
	// rule (shadowing or dropped-ctx), so the generic mint ban below
	// does not double-report the same expression.
	handled := make(map[*ast.CallExpr]bool)

	// Rule 1 — ctx shadowing: a context-typed variable assigned from a
	// source unrelated to the parameter. Only meaningful when there is a
	// parameter to shadow. A reported variable is added to the derived
	// set afterwards so one bad assignment yields one finding, not a
	// cascade at every later use.
	if ctxParam != nil {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := assignedObj(pkg, id)
				if obj == nil || !isContextObj(obj) || derived[obj] {
					continue
				}
				rhs := assignRHS(as, lhs)
				if rhs == nil {
					continue
				}
				if mint, ok := mintCall(pkg, rhs); ok && nilGuardDefault(fd.Body, mint) {
					derived[obj] = true
					continue
				}
				if mint, ok := mintCall(pkg, rhs); ok {
					handled[mint] = true
				}
				flag(as.Pos(), "context variable "+id.Name+" is assigned from a source unrelated to the "+
					"ctx parameter: later uses shadow the caller's cancellation (ctx shadowing)")
				derived[obj] = true
			}
			return true
		})
	}

	// Rule 2 — dropped ctx at each call site.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if ctxParam != nil {
			for _, arg := range call.Args {
				switch a := ast.Unparen(arg).(type) {
				case *ast.Ident:
					obj, _ := pkg.Info.Uses[a].(*types.Var)
					if obj == nil || !isContextObj(obj) || derived[obj] {
						continue
					}
					flag(a.Pos(), "context "+a.Name+" passed here does not derive from the function's ctx "+
						"parameter: the caller's cancellation is dropped at this frame (dropped ctx)")
					derived[obj] = true
				case *ast.CallExpr:
					if mint, ok := mintCall(pkg, a); ok && !handled[mint] {
						handled[mint] = true
						flag(a.Pos(), "fresh root context passed as an argument instead of the function's "+
							"ctx parameter: the caller's cancellation is dropped at this frame (dropped ctx)")
					}
				}
			}
		}
		return true
	})

	// Rule 3 — the mint ban: fresh root contexts are forbidden in scope
	// outside nil-guard defaulting, whether or not the function takes a
	// ctx parameter.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, isMint := mintName(pkg, call)
		if !isMint || handled[call] || nilGuardDefault(fd.Body, call) {
			return true
		}
		flag(call.Pos(), name+"() forbidden here: accept and propagate the caller's context")
		return true
	})
	return out
}

// contextParamObj returns the object of the function's first parameter
// when it is a named context.Context, or nil.
func contextParamObj(pkg *Package, fd *ast.FuncDecl) types.Object {
	if !firstParamIsContext(pkg, fd.Type) {
		return nil
	}
	names := fd.Type.Params.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return nil
	}
	return pkg.Info.Defs[names[0]]
}

// derivedContexts computes the set of variables that carry the ctx
// parameter or a context derived from it: a fixpoint over the body's
// assignments, where an assignment derives its context-typed targets
// whenever its source mentions an already-derived variable (covers
// ctx2 := ctx, tctx, cancel := context.WithTimeout(ctx, d), and
// sctx, span := obs.StartSpan(ctx, ...)). Context parameters of nested
// function literals are seeded too: inside the literal they play the
// parameter's role and their provenance is the literal caller's
// responsibility.
func derivedContexts(pkg *Package, fd *ast.FuncDecl, ctxParam types.Object) map[types.Object]bool {
	derived := make(map[types.Object]bool)
	if ctxParam != nil {
		derived[ctxParam] = true
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok || lit.Type.Params == nil {
			return true
		}
		for _, field := range lit.Type.Params.List {
			if t := pkg.Info.Types[field.Type].Type; t == nil || t.String() != "context.Context" {
				continue
			}
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					derived[obj] = true
				}
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := assignedObj(pkg, id)
				if obj == nil || !isContextObj(obj) || derived[obj] {
					continue
				}
				rhs := assignRHS(as, lhs)
				if rhs != nil && exprMentionsDerived(pkg, rhs, derived) {
					derived[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return derived
}

// assignRHS returns the right-hand side that feeds the given LHS: the
// pairwise expression for 1:1 assignments, or the single multi-value
// source (call, type assertion, receive) otherwise.
func assignRHS(as *ast.AssignStmt, lhs ast.Expr) ast.Expr {
	if len(as.Lhs) == len(as.Rhs) {
		for i, l := range as.Lhs {
			if l == lhs {
				return as.Rhs[i]
			}
		}
		return nil
	}
	if len(as.Rhs) == 1 {
		return as.Rhs[0]
	}
	return nil
}

// assignedObj resolves the variable an assignment target refers to,
// through either a fresh definition (:=) or a plain use (=).
func assignedObj(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pkg.Info.Uses[id]
}

// isContextObj reports whether a variable's declared type is
// context.Context. Idents are resolved through Defs/Uses rather than
// Info.Types because go/types does not record := definition targets in
// the Types map.
func isContextObj(obj types.Object) bool {
	return obj.Type() != nil && obj.Type().String() == "context.Context"
}

// exprMentionsDerived reports whether the expression references any
// variable in the derived set (directly, or anywhere inside a call's
// arguments — context.WithTimeout(ctx, d) derives from ctx).
func exprMentionsDerived(pkg *Package, e ast.Expr, derived map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		if obj := pkg.Info.Uses[id]; obj != nil && derived[obj] {
			found = true
		}
		return true
	})
	return found
}

// mintCall unwraps an expression to a context.Background()/TODO() call.
func mintCall(pkg *Package, e ast.Expr) (*ast.CallExpr, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	_, isMint := mintName(pkg, call)
	return call, isMint
}

// mintName names the fresh-root-context constructor a call invokes, if
// it is one.
func mintName(pkg *Package, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pkg, call)
	switch {
	case isFuncNamed(fn, "context", "Background"):
		return "context.Background", true
	case isFuncNamed(fn, "context", "TODO"):
		return "context.TODO", true
	}
	return "", false
}

// nilGuardDefault reports whether the Background() call is the
// accepted nil-context defaulting idiom:
//
//	if ctx == nil {
//	    ctx = context.Background()
//	}
//
// i.e. an assignment inside an if whose condition nil-checks the same
// variable being assigned.
func nilGuardDefault(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || found {
			return !found
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.EQL {
			return true
		}
		condIdent, ok := ast.Unparen(cond.X).(*ast.Ident)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(cond.Y).(*ast.Ident); !ok || id.Name != "nil" {
			return true
		}
		for _, st := range ifs.Body.List {
			as, ok := st.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				continue
			}
			lhs, ok := as.Lhs[0].(*ast.Ident)
			if !ok || lhs.Name != condIdent.Name {
				continue
			}
			if as.Rhs[0] == call {
				found = true
			}
		}
		return true
	})
	return found
}
