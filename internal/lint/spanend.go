package lint

import (
	"go/ast"
	"strconv"
)

// spanend enforces the telemetry invariant from PR 2: a span opened
// with obs.StartSpan must be closed in the same function by a deferred
// End (directly or inside a deferred closure), so no early return or
// panic can leak an open span from the JSONL trace. (Span names need
// no check: StartSpan takes an obs.SpanName, which only obs can mint.)
type spanend struct{}

func (spanend) Name() string { return "spanend" }

func (spanend) Doc() string {
	return "every obs.StartSpan must have a matching deferred span.End in the same " +
		"function (a defer inside a loop is flagged too — wrap the iteration in a " +
		"closure)"
}

// spanStart is one obs.StartSpan call found in a function scope.
type spanStart struct {
	call    *ast.CallExpr
	varName string // "" when the span result is blank
}

// spanDefer is one deferred End reachable in a function scope.
type spanDefer struct {
	varName string
	inLoop  bool
}

func (s spanend) Run(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, fs := range funcScopes(file) {
			out = append(out, s.checkScope(pkg, fs)...)
		}
	}
	return out
}

func (s spanend) checkScope(pkg *Package, fs funcScope) []Finding {
	var starts []spanStart
	var defers []spanDefer
	var out []Finding
	assigned := make(map[*ast.CallExpr]bool)

	var walk func(n ast.Node, loopDepth int)
	walk = func(n ast.Node, loopDepth int) {
		switch st := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			return // separate scope, handled by its own funcScope
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
		case *ast.AssignStmt:
			if len(st.Rhs) == 1 {
				if call, ok := st.Rhs[0].(*ast.CallExpr); ok && isStartSpan(pkg, call) {
					assigned[call] = true
					start := spanStart{call: call}
					if len(st.Lhs) == 2 {
						if id, ok := st.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
							start.varName = id.Name
						}
					}
					starts = append(starts, start)
				}
			}
		case *ast.CallExpr:
			// A StartSpan whose results are not assigned at all: the
			// span can never be ended.
			if isStartSpan(pkg, st) && !assigned[st] {
				starts = append(starts, spanStart{call: st})
			}
		case *ast.DeferStmt:
			if name, ok := deferredEndVar(st); ok {
				defers = append(defers, spanDefer{varName: name, inLoop: loopDepth > 0})
			}
		}
		// Manual child traversal so loopDepth threads through.
		cur := n
		ast.Inspect(cur, func(c ast.Node) bool {
			if c == nil || c == cur {
				return true
			}
			walk(c, loopDepth)
			return false
		})
	}
	for _, stmt := range fs.body.List {
		walk(stmt, 0)
	}

	byVar := make(map[string][]spanDefer)
	for _, d := range defers {
		byVar[d.varName] = append(byVar[d.varName], d)
	}
	for _, start := range starts {
		pos := pkg.Fset.Position(start.call.Pos())
		if start.varName == "" {
			out = append(out, Finding{Pos: pos, Analyzer: "spanend",
				Msg: "span returned by obs.StartSpan is discarded and can never be ended"})
			continue
		}
		ds := byVar[start.varName]
		if len(ds) == 0 {
			out = append(out, Finding{Pos: pos, Analyzer: "spanend",
				Msg: "span " + strconv.Quote(start.varName) +
					" has no matching deferred End in this function"})
			continue
		}
		for _, d := range ds {
			if d.inLoop {
				out = append(out, Finding{Pos: pos, Analyzer: "spanend",
					Msg: "deferred End for span " + strconv.Quote(start.varName) +
						" sits inside a loop and only runs at function exit; " +
						"wrap the iteration body in a closure"})
			}
		}
	}
	out = append(out, s.checkLeakPaths(pkg, fs, starts)...)
	return out
}

// checkLeakPaths runs the path-sensitive half of the invariant on the
// CFG: between a StartSpan assignment and the registration of its
// deferred End, no return statement may be reachable — an early return
// in that window leaks the span even though a defer exists further
// down. The fact per span variable is "started but End not yet
// deferred"; the meet is OR (a leak on any path is a leak).
func (spanend) checkLeakPaths(pkg *Package, fs funcScope, starts []spanStart) []Finding {
	tracked := make(map[string]int)
	var names []string
	for _, st := range starts {
		if st.varName == "" {
			continue
		}
		if _, ok := tracked[st.varName]; !ok {
			tracked[st.varName] = len(names)
			names = append(names, st.varName)
		}
	}
	if len(names) == 0 {
		return nil
	}

	// transitions lists, for one CFG node in source order, the span
	// events it contains: +i (span i started), -i-1 encoded separately.
	type event struct {
		idx   int
		start bool
	}
	eventsIn := func(n ast.Node) []event {
		var evs []event
		inspectShallow(n, func(x ast.Node) bool {
			switch st := x.(type) {
			case *ast.AssignStmt:
				if len(st.Rhs) == 1 && len(st.Lhs) == 2 {
					if call, ok := st.Rhs[0].(*ast.CallExpr); ok && isStartSpan(pkg, call) {
						if id, ok := st.Lhs[1].(*ast.Ident); ok {
							if i, ok := tracked[id.Name]; ok {
								evs = append(evs, event{idx: i, start: true})
							}
						}
					}
				}
			case *ast.DeferStmt:
				if name, ok := deferredEndVar(st); ok {
					if i, ok := tracked[name]; ok {
						evs = append(evs, event{idx: i, start: false})
					}
				}
			}
			return true
		})
		return evs
	}

	clone := func(f []bool) []bool {
		g := make([]bool, len(f))
		copy(g, f)
		return g
	}
	c := BuildCFG(fs.body)
	in := Forward(c, make([]bool, len(names)),
		func(a, b []bool) []bool {
			out := clone(a)
			for i := range out {
				out[i] = out[i] || b[i]
			}
			return out
		},
		func(bl *Block, f []bool) []bool {
			g := clone(f)
			for _, n := range bl.Nodes {
				for _, ev := range eventsIn(n) {
					g[ev.idx] = ev.start
				}
			}
			return g
		},
		func(a, b []bool) bool {
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		},
	)

	var out []Finding
	for _, bl := range c.Blocks {
		f, ok := in[bl]
		if !ok {
			continue
		}
		f = clone(f)
		for _, n := range bl.Nodes {
			if ret, isRet := n.(*ast.ReturnStmt); isRet {
				for i, leak := range f {
					if leak {
						out = append(out, Finding{
							Pos:      pkg.Fset.Position(ret.Pos()),
							Analyzer: "spanend",
							Msg: "return reachable after span " + strconv.Quote(names[i]) +
								" is started but before its End is deferred; the span leaks on this path",
						})
					}
				}
				continue
			}
			for _, ev := range eventsIn(n) {
				f[ev.idx] = ev.start
			}
		}
	}
	return out
}

// isStartSpan reports whether the call invokes internal/obs.StartSpan.
func isStartSpan(pkg *Package, call *ast.CallExpr) bool {
	return isFuncNamed(calleeFunc(pkg, call), "internal/obs", "StartSpan")
}

// deferredEndVar recognises the two accepted shapes of a deferred span
// close — defer s.End(err) and defer func() { ...; s.End(err) }() —
// returning the span variable's name.
func deferredEndVar(d *ast.DeferStmt) (string, bool) {
	if name, ok := endReceiver(d.Call); ok {
		return name, true
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		name, found := "", false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if v, ok := endReceiver(call); ok {
					name, found = v, true
					return false
				}
			}
			return true
		})
		return name, found
	}
	return "", false
}

// endReceiver matches a call of the form <ident>.End(...).
func endReceiver(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return "", false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", false
	}
	return id.Name, true
}
