package lint

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow layer under the path-aware analyzers
// (spanend, lockscope, nanguard): an intra-procedural CFG of basic
// blocks over one function body, with blocks ordered in reverse
// postorder so the forward dataflow framework in dataflow.go converges
// in few passes.
//
// The graph is deliberately statement-granular and conservative:
//
//   - function literals are NOT inlined — each FuncLit body is its own
//     scope with its own CFG (funcScopes enumerates them), matching how
//     defer/span/lock contracts attach to one function at a time;
//   - panics are not modelled (a deferred handler is what the analyzers
//     check for, so the non-panicking edge set is the relevant one);
//   - goto edges fall back to the function exit, which over-approximates
//     reachability without claiming a precise target (the codebase has
//     no gotos; the fallback just keeps the builder total).

// A Block is a maximal straight-line sequence of statements: control
// enters at the first node and leaves at the last, through the Succs
// edges.
type Block struct {
	// Index is the block's position in CFG.Blocks (reverse postorder;
	// entry is 0).
	Index int
	// Nodes holds the block's statements and control expressions (if/for
	// conditions, switch tags) in execution order.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*Block
}

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the block control enters at.
	Entry *Block
	// Exit is the synthetic block every return (and the fall-off-the-end
	// path) leads to. It holds no nodes.
	Exit *Block
	// Blocks lists the reachable blocks in reverse postorder, Entry
	// first. Exit is included when reachable.
	Blocks []*Block
}

// BuildCFG constructs the control-flow graph of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{exit: &Block{}}
	entry := &Block{}
	last := b.stmtList(entry, body.List)
	if last != nil {
		addEdge(last, b.exit)
	}
	c := &CFG{Entry: entry, Exit: b.exit}
	c.order()
	return c
}

// cfgBuilder threads the break/continue context through the recursive
// statement walk.
type cfgBuilder struct {
	exit *Block
	// loops is the stack of enclosing breakable/continuable constructs.
	loops []loopCtx
}

// loopCtx is one enclosing for/range/switch/select: the target of break
// (and continue, for loops) statements, optionally labeled.
type loopCtx struct {
	label  string
	brk    *Block // break target (the block after the construct)
	cont   *Block // continue target (nil for switch/select)
	isLoop bool
}

func addEdge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// stmtList appends the statements to cur, returning the block control
// is in afterwards — nil when the list ends in a terminator (return,
// break, ...) and the following position is unreachable.
func (b *cfgBuilder) stmtList(cur *Block, list []ast.Stmt) *Block {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after a terminator: park it in a detached
			// block so its nodes still exist, without edges in.
			cur = &Block{}
		}
		cur = b.stmt(cur, s, "")
	}
	return cur
}

// stmt adds one statement to the graph. label is the pending label when
// the statement was wrapped in a LabeledStmt.
func (b *cfgBuilder) stmt(cur *Block, s ast.Stmt, label string) *Block {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, st.List)

	case *ast.LabeledStmt:
		cur.Nodes = append(cur.Nodes, st)
		return b.stmt(cur, st.Stmt, st.Label.Name)

	case *ast.IfStmt:
		if st.Init != nil {
			cur.Nodes = append(cur.Nodes, st.Init)
		}
		cur.Nodes = append(cur.Nodes, st.Cond)
		after := &Block{}
		thenB := &Block{}
		addEdge(cur, thenB)
		if end := b.stmtList(thenB, st.Body.List); end != nil {
			addEdge(end, after)
		}
		if st.Else != nil {
			elseB := &Block{}
			addEdge(cur, elseB)
			if end := b.stmt(elseB, st.Else, ""); end != nil {
				addEdge(end, after)
			}
		} else {
			addEdge(cur, after)
		}
		return after

	case *ast.ForStmt:
		if st.Init != nil {
			cur.Nodes = append(cur.Nodes, st.Init)
		}
		head := &Block{}
		addEdge(cur, head)
		if st.Cond != nil {
			head.Nodes = append(head.Nodes, st.Cond)
		}
		after := &Block{}
		post := &Block{}
		if st.Post != nil {
			post.Nodes = append(post.Nodes, st.Post)
		}
		addEdge(post, head)
		if st.Cond != nil {
			addEdge(head, after)
		}
		body := &Block{}
		addEdge(head, body)
		b.loops = append(b.loops, loopCtx{label: label, brk: after, cont: post, isLoop: true})
		if end := b.stmtList(body, st.Body.List); end != nil {
			addEdge(end, post)
		}
		b.loops = b.loops[:len(b.loops)-1]
		return after

	case *ast.RangeStmt:
		head := &Block{}
		head.Nodes = append(head.Nodes, st.X)
		addEdge(cur, head)
		after := &Block{}
		addEdge(head, after) // empty or exhausted range
		body := &Block{}
		addEdge(head, body)
		b.loops = append(b.loops, loopCtx{label: label, brk: after, cont: head, isLoop: true})
		if end := b.stmtList(body, st.Body.List); end != nil {
			addEdge(end, head)
		}
		b.loops = b.loops[:len(b.loops)-1]
		return after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init ast.Stmt
		var tag ast.Node
		var clauses []ast.Stmt
		switch sw := st.(type) {
		case *ast.SwitchStmt:
			init, tag, clauses = sw.Init, sw.Tag, sw.Body.List
		case *ast.TypeSwitchStmt:
			init, tag, clauses = sw.Init, sw.Assign, sw.Body.List
		}
		if init != nil {
			cur.Nodes = append(cur.Nodes, init)
		}
		if tag != nil {
			cur.Nodes = append(cur.Nodes, tag)
		}
		after := &Block{}
		b.loops = append(b.loops, loopCtx{label: label, brk: after})
		hasDefault := false
		// Case bodies, with fallthrough jumping into the next body.
		bodies := make([]*Block, len(clauses))
		for i := range clauses {
			bodies[i] = &Block{}
		}
		for i, cl := range clauses {
			cc := cl.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				cur.Nodes = append(cur.Nodes, e)
			}
			addEdge(cur, bodies[i])
			end := bodies[i]
			fellThrough := false
			for _, bs := range cc.Body {
				if end == nil {
					end = &Block{}
				}
				if br, ok := bs.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
					if i+1 < len(bodies) {
						addEdge(end, bodies[i+1])
						fellThrough = true
					}
					end = nil
					continue
				}
				end = b.stmt(end, bs, "")
			}
			if end != nil && !fellThrough {
				addEdge(end, after)
			}
		}
		b.loops = b.loops[:len(b.loops)-1]
		if !hasDefault {
			addEdge(cur, after)
		}
		return after

	case *ast.SelectStmt:
		after := &Block{}
		b.loops = append(b.loops, loopCtx{label: label, brk: after})
		hasDefault := false
		for _, cl := range st.Body.List {
			cc := cl.(*ast.CommClause)
			if cc.Comm == nil {
				hasDefault = true
			}
			body := &Block{}
			if cc.Comm != nil {
				body.Nodes = append(body.Nodes, cc.Comm)
			}
			addEdge(cur, body)
			if end := b.stmtList(body, cc.Body); end != nil {
				addEdge(end, after)
			}
		}
		b.loops = b.loops[:len(b.loops)-1]
		if len(st.Body.List) == 0 {
			// select {} blocks forever; treat as terminator.
			_ = hasDefault
			return nil
		}
		return after

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, st)
		addEdge(cur, b.exit)
		return nil

	case *ast.BranchStmt:
		cur.Nodes = append(cur.Nodes, st)
		switch st.Tok {
		case token.BREAK:
			if t := b.findTarget(st.Label, false); t != nil {
				addEdge(cur, t)
			} else {
				addEdge(cur, b.exit)
			}
		case token.CONTINUE:
			if t := b.findTarget(st.Label, true); t != nil {
				addEdge(cur, t)
			} else {
				addEdge(cur, b.exit)
			}
		case token.GOTO:
			// Conservative: no precise target; route to exit.
			addEdge(cur, b.exit)
		}
		return nil

	default:
		// Straight-line statements: assignments, declarations, calls,
		// sends, defers, go statements, inc/dec, empty.
		cur.Nodes = append(cur.Nodes, st)
		return cur
	}
}

// findTarget resolves a break/continue to the innermost (or labeled)
// enclosing construct.
func (b *cfgBuilder) findTarget(label *ast.Ident, isContinue bool) *Block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		lc := b.loops[i]
		if label != nil && lc.label != label.Name {
			continue
		}
		if isContinue {
			if !lc.isLoop {
				continue
			}
			return lc.cont
		}
		return lc.brk
	}
	return nil
}

// order assigns reverse postorder indices and fills Blocks. Unreachable
// blocks (e.g. statements after a return) are dropped from the listing.
func (c *CFG) order() {
	seen := make(map[*Block]bool)
	var post []*Block
	var dfs func(*Block)
	dfs = func(bl *Block) {
		if seen[bl] {
			return
		}
		seen[bl] = true
		for _, s := range bl.Succs {
			dfs(s)
		}
		post = append(post, bl)
	}
	dfs(c.Entry)
	c.Blocks = make([]*Block, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		c.Blocks = append(c.Blocks, post[i])
	}
	for i, bl := range c.Blocks {
		bl.Index = i
	}
}
