package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FuncExtent is the syntax-only footprint of one function declaration:
// file, line range, and the perfgate-relevant directives from its doc
// comment. ScanFuncExtents produces these for cmd/perfgate, which
// attributes compiler escape diagnostics to functions —
// a job that needs declaration geometry and directives, but none of
// the type information the analyzers require.
type FuncExtent struct {
	// File is the module-relative path, slash-separated — the same form
	// the compiler prints in -m diagnostics when invoked at the root.
	File string
	// Pkg is the module-relative package directory ("." for the root).
	Pkg string
	// Name renders as "Func" or "Recv.Method".
	Name string
	// StartLine..EndLine span the declaration, doc comment excluded.
	StartLine, EndLine int
	// NoEscape records //lint:noescape: cmd/perfgate fails the build on
	// any heap escape the compiler attributes inside this extent.
	NoEscape bool
	// Hotpath records //lint:hotpath (the hotalloc/hotreach contract),
	// reported alongside so the perfgate output can cross-reference.
	Hotpath bool
}

// ScanFuncExtents parses — syntax only, no type checking — every
// non-test Go file of the module rooted at root, using the same
// directory walk as Module.LoadAll, and returns the extents of all
// function declarations sorted by file then start line.
func ScanFuncExtents(root string) ([]FuncExtent, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	dirs, err := moduleGoDirs(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var out []FuncExtent
	for _, dir := range dirs {
		relDir, err := filepath.Rel(abs, dir)
		if err != nil {
			return nil, err
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			relFile := filepath.ToSlash(filepath.Join(relDir, name))
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				out = append(out, FuncExtent{
					File:      relFile,
					Pkg:       filepath.ToSlash(relDir),
					Name:      extentName(fd),
					StartLine: fset.Position(fd.Pos()).Line,
					EndLine:   fset.Position(fd.End()).Line,
					NoEscape:  hasDirective(fd.Doc, "noescape"),
					Hotpath:   hasDirective(fd.Doc, "hotpath"),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].StartLine < out[j].StartLine
	})
	return out, nil
}

// extentName renders a declaration name the way the call graph does:
// "Recv.Method" for methods (pointer receivers stripped), "Func" for
// plain functions.
func extentName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// moduleGoDirs walks the module tree rooted at abs and returns every
// directory holding non-test Go files, skipping hidden directories and
// testdata — the walk LoadAll and ScanFuncExtents share.
func moduleGoDirs(abs string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}
