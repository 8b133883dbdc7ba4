package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// precguard certifies the mixed-precision discipline of the numerical
// kernels: every float value is either *storage* (demotable to float32
// — it is read far more often than it is refined, so its precision
// bounds bandwidth, not accuracy: CSR values, the Krylov basis,
// interpolation weights) or *accumulation* (it carries a running sum or
// a factorization and must stay float64: dot products, norms, Givens
// rotations, residual updates, preconditioner factors). Contracts are
// declared in doc comments:
//
//	//lint:precision storage=Val
//	//lint:precision accum=x,y
//	//lint:precision convert storage=dst accum=src
//
// on a struct type (names are fields) or a function (names are
// parameters, plus the keyword "result" for the return value). The
// analyzer classifies expressions by propagating the declared classes
// through field selections, indexing, slicing, conversions, arithmetic
// (accumulation dominates storage), contracted call results, and local
// assignments — flow-sensitively along CFG paths, with the value-flow
// layer's reaching definitions resolving range variables and locals
// the path-local fact has not seen. It proves three rules:
//
//  1. no accumulation-classified value is truncated through a float32
//     conversion;
//  2. a float32 accumulator never reduces storage-classified data in a
//     loop — reductions must widen to float64 before the first add;
//  3. contracted call sites, constructions, and field writes do not mix
//     the two classes.
//
// A function annotated `//lint:precision convert` is a sanctioned
// narrowing boundary (sparse.NewCSR32, solver.narrowScaled,
// fem.Compact): rules 1 and 3 are waived inside it, which keeps every
// demotion at a named, auditable site instead of scattered through the
// kernels. Rule 2 is never waived — accumulating in float32 is wrong
// even inside a convert shim.
type precguard struct{}

func (precguard) Name() string { return "precguard" }

func (precguard) Doc() string {
	return "//lint:precision storage/accumulation contracts: no float32 truncation of accumulators, reductions widen to float64, call sites do not mix classes outside convert functions"
}

var precguardScope = []string{"internal/sparse", "internal/solver", "internal/fem", "internal/numeric"}

func (precguard) Run(pkg *Package) []Finding {
	if !inScope(pkg.RelPath, precguardScope) {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		out = append(out, checkPrecDecls(pkg, file)...)
		for _, sc := range funcScopes(file) {
			out = append(out, checkPrecFlow(pkg, file, sc)...)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Contract representation and lookup.

// precClass is a value's precision classification.
type precClass int

const (
	precUnknown precClass = iota
	// precStorage values may live in float32: bandwidth-bound data that
	// is widened before use in arithmetic.
	precStorage
	// precAccum values must stay float64: running sums, factors,
	// rotations — anything whose error compounds.
	precAccum
)

func (c precClass) String() string {
	switch c {
	case precStorage:
		return "storage"
	case precAccum:
		return "accumulation"
	}
	return "unknown"
}

// precContract is one parsed //lint:precision directive: the sanctioned-
// narrowing marker and the class of each named field/parameter/result.
type precContract struct {
	convert bool
	class   map[string]precClass
}

// parsePrecisionDirective extracts a doc comment's precision contract,
// or nil when none is declared. Syntax diagnostics live in
// suppressions(); malformed fields are skipped here.
func parsePrecisionDirective(doc *ast.CommentGroup) *precContract {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		rest, found := strings.CutPrefix(c.Text, "//lint:precision")
		if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		ct := &precContract{class: make(map[string]precClass)}
		for _, field := range strings.Fields(rest) {
			if field == "convert" {
				ct.convert = true
				continue
			}
			key, val, _ := strings.Cut(field, "=")
			var cl precClass
			switch key {
			case "storage":
				cl = precStorage
			case "accum":
				cl = precAccum
			default:
				continue
			}
			for _, n := range strings.Split(val, ",") {
				if n = strings.TrimSpace(n); n != "" {
					ct.class[n] = cl
				}
			}
		}
		if !ct.convert && len(ct.class) == 0 {
			return nil
		}
		return ct
	}
	return nil
}

// typePrecContract resolves the precision contract of a named struct
// type declared in this module.
func typePrecContract(pkg *Package, named *types.Named) *precContract {
	if pkg.Mod == nil || named == nil {
		return nil
	}
	td := pkg.Mod.TypeSpec(named.Obj())
	if td == nil {
		return nil
	}
	return parsePrecisionDirective(td.Doc)
}

// funcPrecContract resolves the precision contract of a called
// function, with its declaration for parameter-name lookup.
func funcPrecContract(pkg *Package, fn *types.Func) (*precContract, *ast.FuncDecl) {
	if pkg.Mod == nil || fn == nil {
		return nil, nil
	}
	decl := pkg.Mod.FuncDecl(fn)
	if decl == nil {
		return nil, nil
	}
	return parsePrecisionDirective(decl.Doc), decl
}

// ---------------------------------------------------------------------
// Declaration validation.

// elemFloatKind unwraps slices, arrays, and pointers to the basic float
// kind underneath, or types.Invalid for non-float element types.
func elemFloatKind(t types.Type) types.BasicKind {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Info()&types.IsFloat != 0 {
			return u.Kind()
		}
	case *types.Slice:
		return elemFloatKind(u.Elem())
	case *types.Array:
		return elemFloatKind(u.Elem())
	case *types.Pointer:
		return elemFloatKind(u.Elem())
	}
	return types.Invalid
}

// checkPrecDecls semantically validates contracts declared in this
// file: names must exist, accumulation names must be float64-based,
// storage names float-based, and convert is a function-only marker.
func checkPrecDecls(pkg *Package, file *ast.File) []Finding {
	var out []Finding
	classTypeFinding := func(pos token.Position, cl precClass, name string, t types.Type) []Finding {
		kind := elemFloatKind(t)
		switch {
		case kind == types.Invalid:
			return []Finding{{Pos: pos, Analyzer: "precguard",
				Msg: "//lint:precision classifies " + strconvQuote(name) + " but its type " + t.String() + " is not float-based"}}
		case cl == precAccum && kind != types.Float64:
			return []Finding{{Pos: pos, Analyzer: "precguard",
				Msg: "//lint:precision accumulation-classified " + strconvQuote(name) + " must be float64-based, not " + t.String()}}
		}
		return nil
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			ct := parsePrecisionDirective(d.Doc)
			if ct == nil {
				continue
			}
			pos := pkg.Fset.Position(d.Name.Pos())
			params := flatParamNames(d)
			for name, cl := range ct.class {
				if name == "result" {
					if d.Type.Results == nil || len(d.Type.Results.List) == 0 {
						out = append(out, Finding{Pos: pos, Analyzer: "precguard",
							Msg: "//lint:precision classifies the result of " + d.Name.Name + " which returns nothing"})
						continue
					}
					if t := pkg.Info.Types[d.Type.Results.List[0].Type].Type; t != nil {
						out = append(out, classTypeFinding(pos, cl, "result", t)...)
					}
					continue
				}
				if !slices.Contains(params, name) {
					out = append(out, Finding{Pos: pos, Analyzer: "precguard",
						Msg: "//lint:precision names " + strconvQuote(name) + " which is not a parameter of " + d.Name.Name})
					continue
				}
				if obj := precParamVar(pkg, d, name); obj != nil {
					out = append(out, classTypeFinding(pos, cl, name, obj.Type())...)
				}
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = d.Doc
				}
				ct := parsePrecisionDirective(doc)
				if ct == nil {
					continue
				}
				pos := pkg.Fset.Position(ts.Name.Pos())
				if ct.convert {
					out = append(out, Finding{Pos: pos, Analyzer: "precguard",
						Msg: "//lint:precision convert may only be declared on a function, not type " + ts.Name.Name})
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					out = append(out, Finding{Pos: pos, Analyzer: "precguard",
						Msg: "//lint:precision classes may only be declared on struct types or functions"})
					continue
				}
				for name, cl := range ct.class {
					var ft types.Type
					for _, f := range st.Fields.List {
						for _, n := range f.Names {
							if n.Name == name {
								if obj, ok := pkg.Info.Defs[n].(*types.Var); ok {
									ft = obj.Type()
								}
							}
						}
					}
					if ft == nil {
						out = append(out, Finding{Pos: pos, Analyzer: "precguard",
							Msg: "//lint:precision names " + strconvQuote(name) + " which is not a field of " + ts.Name.Name})
						continue
					}
					out = append(out, classTypeFinding(pos, cl, name, ft)...)
				}
			}
		}
	}
	return out
}

// precParamVar resolves a named parameter of a declaration to its
// variable object.
func precParamVar(pkg *Package, decl *ast.FuncDecl, name string) *types.Var {
	if decl.Type.Params == nil {
		return nil
	}
	for _, field := range decl.Type.Params.List {
		for _, n := range field.Names {
			if n.Name == name {
				obj, _ := pkg.Info.Defs[n].(*types.Var)
				return obj
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Flow-sensitive classification.

// precFact maps locals to their may-classification. The meet is a join
// where accumulation dominates storage: if a variable may carry an
// accumulator on any path, truncating it is a bug on that path.
type precFact map[*types.Var]precClass

func (f precFact) clone() precFact {
	g := make(precFact, len(f))
	for k, v := range f {
		g[k] = v
	}
	return g
}

func precMeet(a, b precFact) precFact {
	out := make(precFact, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if v > out[k] {
			out[k] = v
		}
	}
	return out
}

func precEqual(a, b precFact) bool {
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

// precCtx carries the per-scope state of one flow check.
type precCtx struct {
	pkg     *Package
	vf      *ValueFlow
	convert bool       // the scope is a sanctioned narrowing boundary
	loops   []posRange // for/range extents, for the reduction rule
	report  *[]Finding // nil during the fixpoint pass
}

type posRange struct{ lo, hi token.Pos }

// loopRanges records the extent of every for/range statement in the
// body (reductions are only meaningful inside one).
func loopRanges(body *ast.BlockStmt) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			out = append(out, posRange{n.Pos(), n.End()})
		}
		return true
	})
	return out
}

func (c *precCtx) inLoop(pos token.Pos) bool {
	for _, r := range c.loops {
		if r.lo <= pos && pos < r.hi {
			return true
		}
	}
	return false
}

// precConvertScope reports whether the scope (or, for a literal, its
// enclosing declaration) is marked //lint:precision convert.
func precConvertScope(file *ast.File, sc funcScope) bool {
	declConvert := func(d *ast.FuncDecl) bool {
		ct := parsePrecisionDirective(d.Doc)
		return ct != nil && ct.convert
	}
	if sc.decl != nil {
		return declConvert(sc.decl)
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil &&
			fd.Body.Pos() <= sc.body.Pos() && sc.body.End() <= fd.Body.End() {
			return declConvert(fd)
		}
	}
	return false
}

// checkPrecFlow runs the classification dataflow over one function
// scope and reports rule violations during the replay pass.
func checkPrecFlow(pkg *Package, file *ast.File, sc funcScope) []Finding {
	c := BuildCFG(sc.body)
	ctx := &precCtx{
		pkg:     pkg,
		vf:      buildValueFlow(pkg, sc),
		convert: precConvertScope(file, sc),
		loops:   loopRanges(sc.body),
	}
	entry := make(precFact)
	if sc.decl != nil {
		if ct := parsePrecisionDirective(sc.decl.Doc); ct != nil {
			for name, cl := range ct.class {
				if obj := precParamVar(pkg, sc.decl, name); obj != nil {
					entry[obj] = cl
				}
			}
		}
	}
	in := Forward(c, entry, precMeet,
		func(bl *Block, f precFact) precFact {
			g := f.clone()
			for _, n := range bl.Nodes {
				precTransfer(ctx, n, g)
			}
			return g
		},
		precEqual,
	)
	var out []Finding
	ctx.report = &out
	for _, bl := range c.Blocks {
		f, ok := in[bl]
		if !ok {
			continue
		}
		g := f.clone()
		for _, n := range bl.Nodes {
			precTransfer(ctx, n, g)
		}
	}
	return out
}

// precTransfer applies one CFG node to the fact. With ctx.report set it
// first checks the three rules against the incoming fact, then applies
// assignment effects.
func precTransfer(ctx *precCtx, n ast.Node, f precFact) {
	if _, ok := n.(*ast.LabeledStmt); ok {
		return // the labeled statement is its own node
	}
	if ctx.report != nil {
		precReport(ctx, n, f)
	}
	switch st := n.(type) {
	case *ast.AssignStmt:
		precAssign(ctx, st, f)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == len(vs.Names) {
					for i, name := range vs.Names {
						if obj, ok := ctx.pkg.Info.Defs[name].(*types.Var); ok {
							precSet(f, obj, precClassOf(ctx, f, vs.Values[i], 0))
						}
					}
				}
			}
		}
	}
}

func precSet(f precFact, obj *types.Var, cl precClass) {
	if cl == precUnknown {
		delete(f, obj)
		return
	}
	f[obj] = cl
}

// precAssign records assignment effects and checks the reduction rule
// (rule 2) and contracted-field writes (rule 3).
func precAssign(ctx *precCtx, st *ast.AssignStmt, f precFact) {
	switch st.Tok {
	case token.ASSIGN, token.DEFINE:
		for i, lhs := range st.Lhs {
			if ctx.report != nil && st.Tok == token.ASSIGN {
				precCheckFieldWrite(ctx, lhs, st, f)
			}
			obj := lhsVar(ctx.pkg, lhs)
			if obj == nil {
				continue
			}
			if len(st.Rhs) != len(st.Lhs) {
				delete(f, obj) // multi-value call: classes do not propagate
				continue
			}
			// s = s + e over storage data in a float32 accumulator is the
			// spelled-out form of the reduction rule.
			if ctx.report != nil {
				precCheckSpelledReduction(ctx, lhs, st.Rhs[i], st, f)
			}
			cl := precClassOf(ctx, f, st.Rhs[i], 0)
			// A float64 running sum over storage data IS an accumulator:
			// the spelled-out reduction promotes its class.
			if cl == precStorage && precSelfReductionOperand(lhs, st.Rhs[i]) != nil &&
				!precIsFloat32Expr(ctx.pkg, lhs) {
				cl = precAccum
			}
			precSet(f, obj, cl)
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		if ctx.report != nil {
			precCheckReduction(ctx, st.Lhs[0], st.Rhs[0], st, f)
		}
		fallthrough
	default: // compound op=: the class contaminates the accumulator
		if obj := lhsVar(ctx.pkg, st.Lhs[0]); obj != nil {
			cl := precClassOf(ctx, f, st.Rhs[0], 0)
			// A float64 compound add over storage data is a widened
			// reduction — the running sum becomes an accumulator.
			if cl == precStorage && (st.Tok == token.ADD_ASSIGN || st.Tok == token.SUB_ASSIGN) &&
				!precIsFloat32Expr(ctx.pkg, st.Lhs[0]) {
				cl = precAccum
			}
			if cl > f[obj] {
				f[obj] = cl
			}
		}
	}
}

// precReport checks rules 1 and 3 in every expression of the node.
func precReport(ctx *precCtx, n ast.Node, f precFact) {
	inspectShallow(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Rule 1: float32 truncation of an accumulation-classified value.
		if !ctx.convert && precIsFloat32Conversion(ctx.pkg, call) {
			if cl := precClassOf(ctx, f, call.Args[0], 0); cl == precAccum {
				*ctx.report = append(*ctx.report, Finding{
					Pos:      ctx.pkg.Fset.Position(call.Pos()),
					Analyzer: "precguard",
					Msg: "float32 conversion truncates accumulation-classified value " + exprShort(call.Args[0]) +
						"; accumulation must stay float64 — narrow only inside a //lint:precision convert function",
				})
			}
		}
		// Rule 3: contracted call sites must not mix classes.
		if !ctx.convert {
			precCheckCall(ctx, call, f)
		}
		return true
	})
	if ctx.convert {
		return
	}
	// Rule 3 at construction sites of contracted types.
	inspectShallow(n, func(x ast.Node) bool {
		cl, ok := x.(*ast.CompositeLit)
		if !ok {
			return true
		}
		tv, ok := ctx.pkg.Info.Types[cl]
		if !ok || tv.Type == nil {
			return true
		}
		named, _ := namedStructOf(tv.Type)
		ct := typePrecContract(ctx.pkg, named)
		if ct == nil {
			return true
		}
		for _, elt := range cl.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			declared := ct.class[key.Name]
			got := precClassOf(ctx, f, kv.Value, 0)
			if declared != precUnknown && got != precUnknown && got != declared {
				*ctx.report = append(*ctx.report, Finding{
					Pos:      ctx.pkg.Fset.Position(kv.Pos()),
					Analyzer: "precguard",
					Msg: "field " + key.Name + " of " + named.Obj().Name() + " is " + declared.String() +
						"-classified but is constructed from a " + got.String() + "-classified value; route the change of class through a //lint:precision convert function",
				})
			}
		}
		return true
	})
}

// precCheckCall verifies declared parameter classes against argument
// classes at a contracted call site (rule 3).
func precCheckCall(ctx *precCtx, call *ast.CallExpr, f precFact) {
	fn := calleeFunc(ctx.pkg, call)
	ct, decl := funcPrecContract(ctx.pkg, fn)
	if ct == nil || decl == nil || len(ct.class) == 0 {
		return
	}
	params := flatParamNames(decl)
	for i, pn := range params {
		declared := ct.class[pn]
		if declared == precUnknown || i >= len(call.Args) {
			continue
		}
		got := precClassOf(ctx, f, call.Args[i], 0)
		if got != precUnknown && got != declared {
			*ctx.report = append(*ctx.report, Finding{
				Pos:      ctx.pkg.Fset.Position(call.Args[i].Pos()),
				Analyzer: "precguard",
				Msg: "argument " + exprShort(call.Args[i]) + " is " + got.String() + "-classified but parameter " +
					strconvQuote(pn) + " of " + fn.Name() + " is " + declared.String() +
					"-classified; route the change of class through a //lint:precision convert function",
			})
		}
	}
}

// precCheckReduction flags a float32 compound accumulator fed by
// storage-classified data inside a loop (rule 2).
func precCheckReduction(ctx *precCtx, lhs, rhs ast.Expr, st *ast.AssignStmt, f precFact) {
	if !ctx.inLoop(st.Pos()) || !precIsFloat32Expr(ctx.pkg, lhs) {
		return
	}
	if precClassOf(ctx, f, rhs, 0) != precStorage {
		return
	}
	*ctx.report = append(*ctx.report, Finding{
		Pos:      ctx.pkg.Fset.Position(st.Pos()),
		Analyzer: "precguard",
		Msg: "float32 accumulator " + exprShort(lhs) + " reduces storage-classified data; " +
			"widen to float64 before the first add",
	})
}

// precCheckSpelledReduction catches the `s = s + e` spelling of a
// float32 reduction over storage data.
func precCheckSpelledReduction(ctx *precCtx, lhs, rhs ast.Expr, st *ast.AssignStmt, f precFact) {
	if other := precSelfReductionOperand(lhs, rhs); other != nil {
		precCheckReduction(ctx, lhs, other, st, f)
	}
}

// precSelfReductionOperand recognizes `s = s + e` / `s = s - e` /
// `s = e + s` and returns the non-self operand e, or nil.
func precSelfReductionOperand(lhs, rhs ast.Expr) ast.Expr {
	be, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
	if !ok || (be.Op != token.ADD && be.Op != token.SUB) {
		return nil
	}
	if sameIdent(be.X, lhs) {
		return be.Y
	}
	if be.Op == token.ADD && sameIdent(be.Y, lhs) {
		return be.X
	}
	return nil
}

// precCheckFieldWrite verifies a write to a contracted field against
// the class of the written value (rule 3).
func precCheckFieldWrite(ctx *precCtx, lhs ast.Expr, st *ast.AssignStmt, f precFact) {
	if ctx.convert {
		return
	}
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selInfo, ok := ctx.pkg.Info.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return
	}
	named, _ := namedStructOf(selInfo.Recv())
	ct := typePrecContract(ctx.pkg, named)
	if ct == nil {
		return
	}
	declared := ct.class[sel.Sel.Name]
	if declared == precUnknown {
		return
	}
	// Find the RHS paired with this LHS.
	var rhs ast.Expr
	for i, l := range st.Lhs {
		if l == lhs && len(st.Rhs) == len(st.Lhs) {
			rhs = st.Rhs[i]
		}
	}
	if rhs == nil {
		return
	}
	got := precClassOf(ctx, f, rhs, 0)
	if got != precUnknown && got != declared {
		*ctx.report = append(*ctx.report, Finding{
			Pos:      ctx.pkg.Fset.Position(st.Pos()),
			Analyzer: "precguard",
			Msg: "field " + named.Obj().Name() + "." + sel.Sel.Name + " is " + declared.String() +
				"-classified but is assigned a " + got.String() + "-classified value; route the change of class through a //lint:precision convert function",
		})
	}
}

// ---------------------------------------------------------------------
// Expression classification.

const precMaxDepth = 8

// precClassOf classifies an expression: contracted field selections,
// parameters (seeded into the fact at entry), contracted call results,
// and locals — first through the path-local fact, then through the
// value-flow layer's reaching definitions (which also resolves range
// variables over classified slices). Indexing, slicing, conversions,
// and unary ops preserve class; in arithmetic, accumulation dominates
// storage.
func precClassOf(ctx *precCtx, f precFact, e ast.Expr, depth int) precClass {
	if depth > precMaxDepth || e == nil {
		return precUnknown
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj, ok := ctx.pkg.Info.Uses[x].(*types.Var)
		if !ok {
			if obj, ok = ctx.pkg.Info.Defs[x].(*types.Var); !ok {
				return precUnknown
			}
		}
		if cl, ok := f[obj]; ok {
			return cl
		}
		if ctx.vf == nil || !ctx.vf.IsLocal(obj) {
			return precUnknown
		}
		cl := precUnknown
		for _, d := range ctx.vf.ReachingDefs(x) {
			var dc precClass
			switch {
			case d.Kind == VFAssign && d.ResultIndex < 0:
				dc = precClassOf(ctx, f, d.RHS, depth+1)
			case d.Kind == VFRange && elemFloatKind(obj.Type()) != types.Invalid:
				// A range value variable over a classified slice carries
				// the slice's class (the key variable is integer-typed and
				// filtered out by the float check).
				dc = precClassOf(ctx, f, d.RHS, depth+1)
			default:
				dc = precUnknown
			}
			if dc > cl {
				cl = dc
			}
		}
		return cl
	case *ast.SelectorExpr:
		return precFieldClass(ctx, x)
	case *ast.IndexExpr:
		return precClassOf(ctx, f, x.X, depth+1)
	case *ast.SliceExpr:
		return precClassOf(ctx, f, x.X, depth+1)
	case *ast.StarExpr:
		return precClassOf(ctx, f, x.X, depth+1)
	case *ast.UnaryExpr:
		return precClassOf(ctx, f, x.X, depth+1)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			a := precClassOf(ctx, f, x.X, depth+1)
			if b := precClassOf(ctx, f, x.Y, depth+1); b > a {
				return b
			}
			return a
		}
		return precUnknown
	case *ast.CallExpr:
		// Conversions preserve the operand's class.
		if tv, ok := ctx.pkg.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return precClassOf(ctx, f, x.Args[0], depth+1)
		}
		// append grows a slice without changing its class.
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := ctx.pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(x.Args) > 0 {
				return precClassOf(ctx, f, x.Args[0], depth+1)
			}
		}
		if ct, _ := funcPrecContract(ctx.pkg, calleeFunc(ctx.pkg, x)); ct != nil {
			return ct.class["result"]
		}
		return precUnknown
	}
	return precUnknown
}

// precFieldClass classifies a field selection through the receiver
// type's contract.
func precFieldClass(ctx *precCtx, sel *ast.SelectorExpr) precClass {
	selInfo, ok := ctx.pkg.Info.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return precUnknown
	}
	named, _ := namedStructOf(selInfo.Recv())
	ct := typePrecContract(ctx.pkg, named)
	if ct == nil {
		return precUnknown
	}
	return ct.class[sel.Sel.Name]
}

// precIsFloat32Conversion recognizes a conversion whose target is a
// float32-based type.
func precIsFloat32Conversion(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return false
	}
	return elemFloatKind(tv.Type) == types.Float32
}

// precIsFloat32Expr reports a float32-typed (basic) expression.
func precIsFloat32Expr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float32
}
