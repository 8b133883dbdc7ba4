package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses `src` as the body of a function and returns its
// BlockStmt.
func parseBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	file := "package p\nfunc f() error {\n" + src + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", file, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

func TestCFGStraightLine(t *testing.T) {
	c := BuildCFG(parseBody(t, "x := 1\nx++\nreturn nil"))
	if len(c.Blocks) != 2 { // entry + exit
		t.Fatalf("blocks = %d, want 2", len(c.Blocks))
	}
	if c.Entry.Index != 0 {
		t.Errorf("entry index = %d, want 0", c.Entry.Index)
	}
	if len(c.Entry.Nodes) != 3 {
		t.Errorf("entry nodes = %d, want 3", len(c.Entry.Nodes))
	}
	if len(c.Entry.Succs) != 1 || c.Entry.Succs[0] != c.Exit {
		t.Errorf("entry should flow straight to exit")
	}
}

func TestCFGIfElseBothReturn(t *testing.T) {
	c := BuildCFG(parseBody(t, `
if cond() {
	return nil
} else {
	return nil
}`))
	// after-block of the if is unreachable and must be dropped.
	for _, bl := range c.Blocks {
		if bl != c.Exit && len(bl.Succs) == 0 {
			t.Errorf("reachable block %d has no successors and is not exit", bl.Index)
		}
	}
	// Both branch blocks flow to exit.
	n := 0
	for _, bl := range c.Blocks {
		for _, s := range bl.Succs {
			if s == c.Exit {
				n++
			}
		}
	}
	if n != 2 {
		t.Errorf("edges into exit = %d, want 2", n)
	}
}

func TestCFGIfWithoutElse(t *testing.T) {
	c := BuildCFG(parseBody(t, `
x := 0
if cond() {
	x = 1
}
return use(x)`))
	// entry must have two successors: then-block and after-block.
	if len(c.Entry.Succs) != 2 {
		t.Fatalf("entry successors = %d, want 2", len(c.Entry.Succs))
	}
}

func TestCFGLoopDepth(t *testing.T) {
	c := BuildCFG(parseBody(t, `
a := 0
for i := 0; i < 10; i++ {
	for _, v := range xs {
		a += v
	}
}
return ok(a)`))
	// The loop introduces a cycle: some block must appear as its own
	// ancestor, i.e. there is a back edge (succ with smaller-or-equal
	// RPO index).
	back := false
	for _, bl := range c.Blocks {
		for _, s := range bl.Succs {
			if s.Index <= bl.Index && s != c.Exit {
				back = true
			}
		}
	}
	if !back {
		t.Errorf("loop produced no back edge")
	}
}

func TestCFGBreakContinue(t *testing.T) {
	c := BuildCFG(parseBody(t, `
for {
	if a() {
		break
	}
	if b() {
		continue
	}
	work()
}
return nil`))
	// break must reach the return block (the only path into exit goes
	// through the statement after the loop); an infinite for without
	// break would make return unreachable.
	foundReturn := false
	for _, bl := range c.Blocks {
		for _, n := range bl.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				foundReturn = true
			}
		}
	}
	if !foundReturn {
		t.Errorf("return after break-able loop should be reachable")
	}
}

func TestCFGSwitchDefault(t *testing.T) {
	// With a default clause the switch head must NOT flow directly to
	// the after-block.
	c := BuildCFG(parseBody(t, `
switch k() {
case 1:
	a()
default:
	b()
}
return nil`))
	for _, s := range c.Entry.Succs {
		for _, n := range s.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				t.Errorf("switch with default must not skip straight to after-block")
			}
		}
	}
}

func TestCFGSelectCtxDone(t *testing.T) {
	c := BuildCFG(parseBody(t, `
select {
case ch <- v:
	a()
case <-ctx.Done():
	return ctx.Err()
}
return nil`))
	// Two comm clauses: entry has two successors.
	if len(c.Entry.Succs) != 2 {
		t.Fatalf("entry successors = %d, want 2", len(c.Entry.Succs))
	}
}

// TestForwardMustReach exercises the dataflow framework with a tiny
// must-analysis: "a call to mark() must-reaches this block". On a
// diamond where only one branch calls mark(), the join must drop the
// fact; when both branches call it, the join must keep it.
func TestForwardMustReach(t *testing.T) {
	run := func(src string) bool {
		c := BuildCFG(parseBody(t, src))
		marks := func(bl *Block) bool {
			found := false
			for _, n := range bl.Nodes {
				ast.Inspect(n, func(x ast.Node) bool {
					if call, ok := x.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "mark" {
							found = true
						}
					}
					return true
				})
			}
			return found
		}
		in := Forward(c, false,
			func(a, b bool) bool { return a && b },
			func(bl *Block, f bool) bool { return f || marks(bl) },
			func(a, b bool) bool { return a == b },
		)
		return in[c.Exit]
	}

	if run("if cond() {\n mark()\n}\nreturn nil") {
		t.Errorf("mark() on one branch only must not must-reach exit")
	}
	if !run("if cond() {\n mark()\n} else {\n mark()\n}\nreturn nil") {
		t.Errorf("mark() on both branches must must-reach exit")
	}
	if !run("mark()\nfor i := 0; i < n; i++ {\n work()\n}\nreturn nil") {
		t.Errorf("mark() before a loop must survive the loop join")
	}
}

// TestForwardMayReach checks the dual may-analysis (meet = OR).
func TestForwardMayReach(t *testing.T) {
	c := BuildCFG(parseBody(t, "if cond() {\n mark()\n}\nreturn nil"))
	marks := func(bl *Block) bool {
		for _, n := range bl.Nodes {
			ok := false
			ast.Inspect(n, func(x ast.Node) bool {
				if call, isCall := x.(*ast.CallExpr); isCall {
					if id, isID := call.Fun.(*ast.Ident); isID && id.Name == "mark" {
						ok = true
					}
				}
				return true
			})
			if ok {
				return true
			}
		}
		return false
	}
	in := Forward(c, false,
		func(a, b bool) bool { return a || b },
		func(bl *Block, f bool) bool { return f || marks(bl) },
		func(a, b bool) bool { return a == b },
	)
	if !in[c.Exit] {
		t.Errorf("mark() on one branch should may-reach exit")
	}
}
