package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture tests share one Module so the (expensive) source-importer
// type-checking of stdlib dependencies happens once per test binary.
var (
	modOnce sync.Once
	testMod *Module
	modErr  error
)

func testModule(t *testing.T) *Module {
	t.Helper()
	modOnce.Do(func() { testMod, modErr = NewModule("../..") })
	if modErr != nil {
		t.Fatalf("NewModule: %v", modErr)
	}
	return testMod
}

func loadFixture(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	pkg, err := testModule(t).LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return pkg
}

// expectation is one `// want <analyzer> "<substring>"` comment parsed
// out of a fixture: a finding by that analyzer must land on that line
// with the substring in its message.
type expectation struct {
	file     string
	line     int
	analyzer string
	substr   string
	matched  bool
}

var wantRe = regexp.MustCompile(`want ([a-z]+) "([^"]+)"`)

// parseWants reads the fixture sources back and collects their want
// comments, keyed by position.
func parseWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// ")
			if idx < 0 {
				continue
			}
			for _, m := range wantRe.FindAllStringSubmatch(line[idx:], -1) {
				out = append(out, &expectation{file: name, line: i + 1, analyzer: m[1], substr: m[2]})
			}
		}
	}
	return out
}

// TestAnalyzerFixtures runs the full suite over each fixture package
// and checks the findings line-for-line against the fixtures' want
// comments: every want must be found, and nothing else may fire.
func TestAnalyzerFixtures(t *testing.T) {
	for _, tc := range []struct {
		dir        string
		importPath string
	}{
		// The import paths masquerade the fixtures into each analyzer's
		// scope (ctxprop wants a pipeline package, floateq a kernel one).
		{"ctxprop", "repro/internal/fem/ctxfixture"},
		{"spanend", "repro/internal/spanfixture"},
		{"errwrap", "repro/internal/errfixture"},
		{"floateq", "repro/internal/solver/floatfixture"},
		{"hotalloc", "repro/internal/hotfixture"},
		{"hotreach", "repro/internal/hotreachfix"},
		{"lockscope", "repro/internal/par/lockfixture"},
		{"nanguard", "repro/internal/solver/nanfixture"},
		{"detguard", "repro/internal/fem/detfixture"},
	} {
		t.Run(tc.dir, func(t *testing.T) {
			pkg := loadFixture(t, filepath.Join("testdata", "src", tc.dir), tc.importPath)
			wants := parseWants(t, pkg)
			findings := Run([]*Package{pkg}, Analyzers())
		finding:
			for _, f := range findings {
				for _, w := range wants {
					if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line &&
						w.analyzer == f.Analyzer && strings.Contains(f.Msg, w.substr) {
						w.matched = true
						continue finding
					}
				}
				t.Errorf("unexpected finding: %s", f)
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: missing %s finding matching %q", w.file, w.line, w.analyzer, w.substr)
				}
			}
		})
	}
}

// TestFindingPositions pins the exact file:line:col of findings on a
// source text small enough to count by hand.
func TestFindingPositions(t *testing.T) {
	const src = `package tmpfloat

func Eq(a, b float64) bool {
	return a == b
}

func Ne(r float64) bool {
	return r != 0
}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "tmpfloat.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := loadFixture(t, dir, "repro/internal/solver/tmpfloat")
	findings := Run([]*Package{pkg}, Analyzers())
	want := []struct {
		line, col int
	}{
		{4, 11}, // the == in Eq
		{8, 11}, // the != in Ne
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), findingList(findings))
	}
	for i, w := range want {
		f := findings[i]
		if f.Analyzer != "floateq" || f.Pos.Line != w.line || f.Pos.Column != w.col {
			t.Errorf("finding %d = %s:%d:%d %s, want line %d col %d floateq",
				i, f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, w.line, w.col)
		}
	}
}

// TestSuppressionCoverage verifies both accepted placements of a
// //lint:ignore comment: trailing on the offending line and on the
// line directly above it.
func TestSuppressionCoverage(t *testing.T) {
	const src = `package supfix

import "errors"

func fail() error { return errors.New("x") }

func SameLine() {
	_ = fail() //lint:ignore errwrap trailing waiver on the same line
}

func LineAbove() {
	//lint:ignore errwrap waiver on the line above
	_ = fail()
}

func TwoAbove() {
	//lint:ignore errwrap a waiver two lines up reaches nothing
	_ = 0
	_ = fail()
}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "supfix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := loadFixture(t, dir, "repro/internal/supfix")
	findings := Run([]*Package{pkg}, Analyzers())
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly the out-of-range one:\n%s", len(findings), findingList(findings))
	}
	if f := findings[0]; f.Analyzer != "errwrap" || f.Pos.Line != 19 {
		t.Errorf("surviving finding = %s, want errwrap on line 19", f)
	}
}

// TestMalformedDirectives checks the lint pseudo-analyzer: broken
// //lint: directives are reported at their exact positions and fail to
// suppress the findings beneath them.
func TestMalformedDirectives(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "src", "badsup"), "repro/internal/badsup")
	findings := Run([]*Package{pkg}, Analyzers())
	want := []struct {
		line, col int
		analyzer  string
		substr    string
	}{
		{12, 2, "lint", "malformed directive"},
		{13, 6, "errwrap", "error discarded with _ ="},
		{18, 2, "lint", `unknown analyzer "nosuchanalyzer"`},
		{19, 6, "errwrap", "error discarded with _ ="},
		{24, 2, "lint", "unknown directive //lint:ignroe"},
		{25, 6, "errwrap", "error discarded with _ ="},
		{35, 1, "lint", "unknown directive //lint:stage"},
		{36, 1, "lint", "unknown directive //lint:phase"},
		{37, 1, "lint", "unknown directive //lint:noalias"},
		{38, 1, "lint", "unknown directive //lint:shape"},
		{39, 1, "lint", "unknown directive //lint:precision"},
		{40, 1, "lint", "unknown directive //lint:coordspace"},
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), findingList(findings))
	}
	for i, w := range want {
		f := findings[i]
		if f.Analyzer != w.analyzer || f.Pos.Line != w.line || f.Pos.Column != w.col ||
			!strings.Contains(f.Msg, w.substr) {
			t.Errorf("finding %d = %s, want %s at %d:%d matching %q", i, f, w.analyzer, w.line, w.col, w.substr)
		}
	}
}

// TestAnalyzerNamesStable pins the suite roster: the names appear in
// //lint:ignore directives across the tree, so removals or renames must
// be deliberate.
func TestAnalyzerNamesStable(t *testing.T) {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name())
		if a.Doc() == "" {
			t.Errorf("analyzer %s has no doc", a.Name())
		}
	}
	if got, want := strings.Join(names, " "),
		"ctxprop spanend errwrap floateq hotalloc hotreach lockscope nanguard detguard"; got != want {
		t.Errorf("Analyzers() = %q, want %q", got, want)
	}
}

// TestModuleIsSimlintClean is the self-check: the suite must pass over
// the repository itself, exactly as cmd/simlint runs it in make check,
// and with no waiver: the debt register was retired at zero, so any
// //lint:ignore in the tree is itself a finding here.
func TestModuleIsSimlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	mod := testModule(t)
	pkgs, err := mod.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("LoadAll found only %d packages; the walk is likely broken", len(pkgs))
	}
	res := RunAll(pkgs, Analyzers())
	for _, f := range res.Findings {
		t.Errorf("%s", f)
	}
	for _, w := range res.Waivers {
		t.Errorf("%s:%d: //lint:ignore %s: the module carries no waivers; fix the finding",
			w.Pos.Filename, w.Pos.Line, w.Analyzer)
	}
}

// TestDeterministicOutput pins the fixed-output guarantee: two runs of
// the suite over the whole module render byte-identical text reports,
// even though RunAll analyzes packages concurrently.
func TestDeterministicOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	mod := testModule(t)
	pkgs, err := mod.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	// The module itself is clean, so fold two finding-rich fixtures into
	// the run: the determinism check needs a non-trivial report, and the
	// fixtures exercise the interprocedural analyzers' chain rendering.
	pkgs = append(pkgs,
		loadFixture(t, filepath.Join("testdata", "src", "ctxprop"), "repro/internal/fem/ctxfixture"),
		loadFixture(t, filepath.Join("testdata", "src", "lockscope"), "repro/internal/par/lockfixture"))
	render := func() string {
		var b strings.Builder
		if err := WriteText(&b, mod.Root, Run(pkgs, Analyzers())); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		return b.String()
	}
	first := render()
	if first == "" {
		t.Fatal("raw run produced no findings; the determinism check needs a non-trivial report")
	}
	for i := 0; i < 3; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d differs from run 0:\n--- run 0\n%s\n--- run %d\n%s", i+1, first, i+1, got)
		}
	}
}

func findingList(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}
