package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the SSA-lite value-flow layer under precguard:
// per-function reaching definitions computed over the CFG in cfg.go
// with the generic Forward solver, plus def-use chains resolved at
// every identifier use. The construction is
// "SSA-lite" rather than SSA proper: instead of renaming variables and
// materializing phi nodes, the reaching-definition sets themselves play
// the role of phis — at a join point the set of definitions reaching a
// use is the union over predecessors, which is exactly the information a
// phi node would carry, without rewriting the AST.
//
// Precision notes, deliberate and documented:
//
//   - function literals are separate scopes (as everywhere in this
//     suite); a variable assigned inside a nested literal is demoted to
//     a single "captured" definition that reaches every use and is never
//     killed, as is any variable whose address is taken;
//   - variables bound by a type switch have no tracked definitions
//     (go/types records them in Info.Implicits, which the loader does
//     not collect); their uses resolve to an empty definition set and
//     consumers treat them as unknown.

// VFKind classifies one definition site.
type VFKind int

const (
	// VFParam is a parameter, receiver, or named result: the value is
	// established at function entry.
	VFParam VFKind = iota
	// VFAssign is `x = rhs` or `x := rhs`; RHS holds the assigned
	// expression (for a multi-value assignment, the call, with
	// ResultIndex selecting the component).
	VFAssign
	// VFCompound is `x op= rhs` or `x++`/`x--`: the new value derives
	// from the old one plus RHS (nil for inc/dec).
	VFCompound
	// VFDecl is `var x T` with no initializer: the zero value.
	VFDecl
	// VFRange is a range-statement key or value variable; RHS holds the
	// ranged operand.
	VFRange
	// VFCaptured marks a variable mutated through a closure or a taken
	// address: its value is unknown and the definition is never killed.
	VFCaptured
)

// A VFDef is one definition site of a local variable.
type VFDef struct {
	ID   int
	Obj  *types.Var
	Kind VFKind
	// RHS is the defining expression (see VFKind); nil when the value is
	// not expressible (params, zero-value decls, captures).
	RHS ast.Expr
	// ResultIndex selects the tuple component when RHS is a multi-value
	// call; -1 otherwise.
	ResultIndex int
	Pos         token.Pos
}

// A ValueFlow holds the reaching-definition analysis of one function
// scope: every definition site of its local variables and, for every
// identifier use, the set of definitions that may reach it.
type ValueFlow struct {
	Pkg   *Package
	Scope funcScope

	defs  []*VFDef
	byObj map[*types.Var][]*VFDef
	uses  map[*ast.Ident][]*VFDef
	local map[*types.Var]bool
}

// buildValueFlow runs the reaching-definition analysis over one function
// scope.
func buildValueFlow(pkg *Package, sc funcScope) *ValueFlow {
	vf := &ValueFlow{
		Pkg:   pkg,
		Scope: sc,
		byObj: make(map[*types.Var][]*VFDef),
		uses:  make(map[*ast.Ident][]*VFDef),
		local: make(map[*types.Var]bool),
	}
	vf.collectLocals()
	captured := vf.findCaptured()

	c := BuildCFG(sc.body)

	// Enumerate definitions block-by-block so every def is attached to
	// the CFG node it occurs in; defsByNode drives the transfer function.
	entryDefs := vf.entryDefs(captured)
	defsByNode := make(map[ast.Node][]*VFDef)
	for _, bl := range c.Blocks {
		for _, n := range bl.Nodes {
			if ds := vf.defsInNode(n); len(ds) > 0 {
				defsByNode[n] = ds
			}
		}
	}

	// Reaching-definition dataflow: the fact is the set of definition
	// IDs live at a point; meet is set union (the phi), a definition
	// kills the variable's other definitions except never-killed
	// captures.
	entry := make(vfFact, len(entryDefs))
	for _, d := range entryDefs {
		entry[d.ID] = true
	}
	in := Forward(c, entry, vfMeet,
		func(bl *Block, f vfFact) vfFact {
			g := f.clone()
			for _, n := range bl.Nodes {
				for _, d := range defsByNode[n] {
					vf.apply(g, d)
				}
			}
			return g
		},
		vfEqual,
	)

	// Use-recording pass: re-walk each block with its IN fact, recording
	// the reaching set at every identifier use before applying the
	// node's own definitions (a use on the right-hand side of `x = x+1`
	// sees the old definitions).
	for _, bl := range c.Blocks {
		f, ok := in[bl]
		if !ok {
			continue
		}
		g := f.clone()
		for _, n := range bl.Nodes {
			ds := defsByNode[n]
			defIdents := make(map[*ast.Ident]bool, len(ds))
			for _, d := range ds {
				if id := defIdentOf(n, d); id != nil {
					defIdents[id] = true
				}
			}
			inspectShallow(n, func(x ast.Node) bool {
				id, ok := x.(*ast.Ident)
				if !ok || defIdents[id] {
					return true
				}
				obj, ok := vf.Pkg.Info.Uses[id].(*types.Var)
				if !ok || !vf.local[obj] {
					return true
				}
				var reach []*VFDef
				for _, d := range vf.byObj[obj] {
					if g[d.ID] {
						reach = append(reach, d)
					}
				}
				vf.uses[id] = reach
				return true
			})
			for _, d := range ds {
				vf.apply(g, d)
			}
		}
	}
	return vf
}

// ReachingDefs returns the definitions that may reach an identifier
// use, or nil when the identifier is not a use of a tracked local.
func (vf *ValueFlow) ReachingDefs(id *ast.Ident) []*VFDef { return vf.uses[id] }

// DefsOf lists every definition site of a tracked local.
func (vf *ValueFlow) DefsOf(obj *types.Var) []*VFDef { return vf.byObj[obj] }

// IsLocal reports whether the variable is tracked by this scope's
// analysis (declared by it, including parameters and named results).
func (vf *ValueFlow) IsLocal(obj *types.Var) bool { return vf.local[obj] }

// vfFact is the reaching-definition set, keyed by VFDef.ID.
type vfFact map[int]bool

func (f vfFact) clone() vfFact {
	g := make(vfFact, len(f))
	for k, v := range f {
		g[k] = v
	}
	return g
}

func vfMeet(a, b vfFact) vfFact {
	out := a.clone()
	for k, v := range b {
		if v {
			out[k] = true
		}
	}
	return out
}

func vfEqual(a, b vfFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// apply installs one definition into the fact: gen the def, kill the
// variable's other (non-captured) definitions.
func (vf *ValueFlow) apply(f vfFact, d *VFDef) {
	for _, other := range vf.byObj[d.Obj] {
		if other != d && other.Kind != VFCaptured {
			delete(f, other.ID)
		}
	}
	f[d.ID] = true
}

// collectLocals registers the variables this scope defines: parameters,
// the receiver, named results, and every ident the body's statements
// declare (Info.Defs), excluding declarations inside nested literals.
func (vf *ValueFlow) collectLocals() {
	addField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj, ok := vf.Pkg.Info.Defs[name].(*types.Var); ok {
					vf.local[obj] = true
				}
			}
		}
	}
	if vf.Scope.decl != nil {
		addField(vf.Scope.decl.Recv)
	}
	addField(vf.Scope.typ.Params)
	addField(vf.Scope.typ.Results)
	inspectShallow(vf.Scope.body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj, ok := vf.Pkg.Info.Defs[id].(*types.Var); ok && !obj.IsField() {
				vf.local[obj] = true
			}
		}
		return true
	})
}

// findCaptured marks the tracked variables whose value can change
// through channels this analysis does not model: assignment inside a
// nested function literal, or a taken address.
func (vf *ValueFlow) findCaptured() map[*types.Var]bool {
	captured := make(map[*types.Var]bool)
	mark := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj, ok := vf.Pkg.Info.Uses[id].(*types.Var); ok && vf.local[obj] {
				captured[obj] = true
			}
			if obj, ok := vf.Pkg.Info.Defs[id].(*types.Var); ok && vf.local[obj] {
				captured[obj] = true
			}
		}
	}
	depth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			depth++
			ast.Inspect(x.Body, walk)
			depth--
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				mark(x.X)
			}
		case *ast.AssignStmt:
			if depth > 0 {
				for _, lhs := range x.Lhs {
					mark(lhs)
				}
			}
		case *ast.IncDecStmt:
			if depth > 0 {
				mark(x.X)
			}
		case *ast.RangeStmt:
			if depth > 0 {
				if x.Key != nil {
					mark(x.Key)
				}
				if x.Value != nil {
					mark(x.Value)
				}
			}
		}
		return true
	}
	ast.Inspect(vf.Scope.body, walk)
	return captured
}

// entryDefs creates the definitions live at function entry: one VFParam
// per parameter/receiver/result and one never-killed VFCaptured per
// captured variable.
func (vf *ValueFlow) entryDefs(captured map[*types.Var]bool) []*VFDef {
	var out []*VFDef
	add := func(obj *types.Var, kind VFKind, pos token.Pos) {
		d := &VFDef{ID: len(vf.defs), Obj: obj, Kind: kind, ResultIndex: -1, Pos: pos}
		vf.defs = append(vf.defs, d)
		vf.byObj[obj] = append(vf.byObj[obj], d)
		out = append(out, d)
	}
	addField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj, ok := vf.Pkg.Info.Defs[name].(*types.Var); ok {
					add(obj, VFParam, name.Pos())
				}
			}
		}
	}
	if vf.Scope.decl != nil {
		addField(vf.Scope.decl.Recv)
	}
	addField(vf.Scope.typ.Params)
	addField(vf.Scope.typ.Results)
	// Deterministic order for the captured set.
	var caps []*types.Var
	for obj := range captured {
		caps = append(caps, obj)
	}
	sort.Slice(caps, func(i, j int) bool { return caps[i].Pos() < caps[j].Pos() })
	for _, obj := range caps {
		add(obj, VFCaptured, obj.Pos())
	}
	return out
}

// defsInNode extracts the definitions one CFG node performs, in
// evaluation order. LabeledStmt is skipped: the CFG lists the labeled
// statement itself as a separate node.
func (vf *ValueFlow) defsInNode(n ast.Node) []*VFDef {
	var out []*VFDef
	add := func(id *ast.Ident, kind VFKind, rhs ast.Expr, resultIndex int) {
		var obj *types.Var
		if o, ok := vf.Pkg.Info.Defs[id].(*types.Var); ok {
			obj = o
		} else if o, ok := vf.Pkg.Info.Uses[id].(*types.Var); ok {
			obj = o
		}
		if obj == nil || !vf.local[obj] {
			return
		}
		d := &VFDef{ID: len(vf.defs), Obj: obj, Kind: kind, RHS: rhs, ResultIndex: resultIndex, Pos: id.Pos()}
		vf.defs = append(vf.defs, d)
		vf.byObj[obj] = append(vf.byObj[obj], d)
		out = append(out, d)
	}
	switch st := n.(type) {
	case *ast.LabeledStmt:
		return nil
	case *ast.AssignStmt:
		vf.assignDefs(st, add)
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(st.X).(*ast.Ident); ok {
			add(id, VFCompound, nil, -1)
		}
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return nil
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				switch {
				case len(vs.Values) == 0:
					add(name, VFDecl, nil, -1)
				case len(vs.Values) == len(vs.Names):
					add(name, VFAssign, vs.Values[i], -1)
				default: // multi-value call
					add(name, VFAssign, vs.Values[0], i)
				}
			}
		}
	default:
		// Range key/value definitions attach to the range operand node —
		// the head node of the loop in the CFG — so the body block's IN
		// fact includes them.
		vf.rangeDefs(n, add)
	}
	return out
}

// assignDefs extracts the definitions of one assignment statement.
func (vf *ValueFlow) assignDefs(st *ast.AssignStmt, add func(*ast.Ident, VFKind, ast.Expr, int)) {
	switch st.Tok {
	case token.ASSIGN, token.DEFINE:
		tuple := len(st.Rhs) == 1 && len(st.Lhs) > 1
		for i, lhs := range st.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if tuple {
				add(id, VFAssign, st.Rhs[0], i)
			} else {
				add(id, VFAssign, st.Rhs[i], -1)
			}
		}
	default: // compound op=
		if id, ok := ast.Unparen(st.Lhs[0]).(*ast.Ident); ok {
			add(id, VFCompound, st.Rhs[0], -1)
		}
	}
}

// rangeDefs matches a CFG head node against its enclosing RangeStmt.
// The CFG stores st.X as the head node; the key/value idents live on
// the RangeStmt, which is not itself a node, so the builder walks the
// scope's range statements and attaches their definitions to X.
func (vf *ValueFlow) rangeDefs(n ast.Node, add func(*ast.Ident, VFKind, ast.Expr, int)) {
	e, ok := n.(ast.Expr)
	if !ok {
		return
	}
	inspectShallow(vf.Scope.body, func(x ast.Node) bool {
		rs, ok := x.(*ast.RangeStmt)
		if !ok || rs.X != e {
			return true
		}
		if id, ok := identOrNil(rs.Key); ok {
			add(id, VFRange, rs.X, -1)
		}
		if id, ok := identOrNil(rs.Value); ok {
			add(id, VFRange, rs.X, -1)
		}
		return true
	})
}

func identOrNil(e ast.Expr) (*ast.Ident, bool) {
	if e == nil {
		return nil, false
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, false
	}
	return id, true
}

// defIdentOf finds the defining ident of a definition within its node,
// so the use-recording pass can skip it (the LHS of `x = ...` is not a
// use). Compound definitions return nil: `x += e` reads x.
func defIdentOf(n ast.Node, d *VFDef) *ast.Ident {
	if d.Kind == VFCompound || d.Kind == VFRange {
		return nil
	}
	var found *ast.Ident
	inspectShallow(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && id.Pos() == d.Pos {
			found = id
			return false
		}
		return found == nil
	})
	return found
}
