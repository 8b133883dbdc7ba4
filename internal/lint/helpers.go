package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// inScope reports whether a package's module-relative path lies in one
// of the listed subtrees ("internal/fem" matches internal/fem and any
// directory below it).
func inScope(relPath string, scopes []string) bool {
	for _, s := range scopes {
		if relPath == s || strings.HasPrefix(relPath, s+"/") {
			return true
		}
	}
	return false
}

// calleeFunc resolves the function or method a call invokes, or nil
// for calls through function values, builtins, and type conversions.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}

// isFuncNamed reports whether fn is the named function of a package
// whose import path is pathSuffix or ends in "/"+pathSuffix. Matching
// by suffix keeps the analyzers vendoring- and module-name-agnostic.
func isFuncNamed(fn *types.Func, pathSuffix, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == pathSuffix || strings.HasSuffix(p, "/"+pathSuffix)
}

// containsLoop reports whether the subtree holds a for or range
// statement, including inside nested function literals (work done in a
// closure launched by the function still runs under its contract).
func containsLoop(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// firstParamIsContext reports whether the function type's first
// parameter is a context.Context.
func firstParamIsContext(pkg *Package, ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return false
	}
	t := pkg.Info.Types[ft.Params.List[0].Type].Type
	return t != nil && t.String() == "context.Context"
}

// errorIface is the universe error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// resultsIncludeError reports whether a call expression's result type
// includes an error (either a single error result or an error among a
// tuple's components).
func resultsIncludeError(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Implements(t.At(i).Type(), errorIface) {
				return true
			}
		}
		return false
	default:
		return types.Implements(t, errorIface)
	}
}

// funcScope is one function body: a declaration or a literal. Analyzers
// that reason about "the same function" (spanend's defer pairing)
// iterate these.
type funcScope struct {
	decl *ast.FuncDecl // nil for literals
	typ  *ast.FuncType
	body *ast.BlockStmt
}

// funcScopes lists every function declaration and literal in the file.
func funcScopes(file *ast.File) []funcScope {
	var out []funcScope
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, funcScope{decl: fn, typ: fn.Type, body: fn.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcScope{typ: fn.Type, body: fn.Body})
		}
		return true
	})
	return out
}

// inspectShallow visits the subtree rooted at n but does not descend
// into nested function literals: the traversal stays within one
// function's own statements.
func inspectShallow(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return f(n)
	})
}

// hasDirective reports whether the comment group carries the given
// //lint: directive verb.
func hasDirective(doc *ast.CommentGroup, verb string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//lint:")
		if !ok {
			continue
		}
		v, _, _ := strings.Cut(rest, " ")
		if v == verb {
			return true
		}
	}
	return false
}
