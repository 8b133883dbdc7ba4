package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked, comment-preserving package of the
// module: the unit analyzers run over. Only non-test files are loaded —
// the invariants simlint enforces are production-code conventions, and
// several (manual span End ordering in obs tests, exact expected values
// in kernel tests) are deliberately exercised the "wrong" way by tests.
type Package struct {
	// Path is the import path ("repro/internal/fem").
	Path string
	// RelPath is the module-relative directory ("internal/fem", "" for
	// the module root). Analyzers scope themselves by RelPath so that
	// test fixtures can masquerade as in-scope packages.
	RelPath string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Files holds the parsed files, sorted by filename, with comments.
	Files []*ast.File
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
	// Mod points back to the loading module, giving analyzers access to
	// module-wide state (Module.Graph).
	Mod *Module
}

// Module is a loaded view of one Go module: every package directory
// parsed and type-checked, stdlib dependencies resolved from source.
type Module struct {
	// Root is the absolute module root directory.
	Root string
	// Path is the module path from go.mod.
	Path string
	// Fset positions every loaded file.
	Fset *token.FileSet

	pkgs   map[string]*Package // by import path
	std    types.ImporterFrom
	info   *types.Info
	loadWG map[string]bool // cycle guard
	// graph memoizes the module-wide call graph (callgraph.go); the
	// generation counter invalidates it when more packages are loaded
	// (fixture tests share one Module). graphMu serializes the analyzer
	// goroutines RunAll spawns.
	graphMu  sync.Mutex
	graph    *CallGraph
	graphGen int
}

// NewModule prepares a loader for the module rooted at root (the
// directory containing go.mod). Packages are loaded lazily by LoadDir /
// LoadAll; results are memoized.
func NewModule(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Module{
		Root: abs,
		Path: modPath,
		Fset: fset,
		pkgs: make(map[string]*Package),
		std:  std,
		info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
		loadWG: make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// LoadAll walks the module tree and loads every directory containing
// non-test Go files, skipping hidden directories and testdata. The
// returned packages are sorted by import path.
func (m *Module) LoadAll() ([]*Package, error) {
	dirs, err := moduleGoDirs(m.Root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(m.Root, dir)
		if err != nil {
			return nil, err
		}
		importPath := m.Path
		if rel != "." {
			importPath = m.Path + "/" + filepath.ToSlash(rel)
		}
		pkg, err := m.LoadDir(dir, importPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// LoadDir parses and type-checks the non-test files of one directory
// under the given import path. The import path controls analyzer
// scoping (via RelPath, derived from it), which lets fixture tests
// masquerade a testdata directory as e.g. "repro/internal/fem".
func (m *Module) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := m.pkgs[importPath]; ok {
		return pkg, nil
	}
	if m.loadWG[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	m.loadWG[importPath] = true
	defer delete(m.loadWG, importPath)

	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(abs)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(m.Fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", abs)
	}
	conf := types.Config{Importer: m}
	tpkg, err := conf.Check(importPath, m.Fset, files, m.info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{
		Path:    importPath,
		RelPath: strings.TrimPrefix(strings.TrimPrefix(importPath, m.Path), "/"),
		Dir:     abs,
		Files:   files,
		Fset:    m.Fset,
		Types:   tpkg,
		Info:    m.info,
		Mod:     m,
	}
	m.pkgs[importPath] = pkg
	return pkg, nil
}

// Import implements types.Importer.
func (m *Module) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

// ImportFrom resolves module-internal import paths to their directories
// (type-checking them recursively) and delegates everything else to the
// standard library's source importer, so the whole load is offline and
// stdlib-only.
func (m *Module) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg.Types, nil
	}
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, m.Path), "/")
		pkg, err := m.LoadDir(filepath.Join(m.Root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.std.ImportFrom(path, srcDir, mode)
}
