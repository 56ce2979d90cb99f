package analysis

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
)

// Package is one loaded analysis unit: a package's files (including its
// in-package _test.go files) with full type information. External test
// packages (package foo_test) load as a separate unit that shares the
// directory's import path for analyzer-scoping purposes.
type Package struct {
	Path  string // import path used for analyzer scoping
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of a single module without the
// go command or network access: module-internal imports resolve by mapping
// the import path onto the module root, and standard-library imports
// resolve through the stdlib source importer (GOROOT/src).
type Loader struct {
	ModPath string // module path from go.mod (e.g. "mpicontend")
	ModRoot string // absolute directory containing go.mod

	fset    *token.FileSet
	std     types.ImporterFrom
	cache   map[string]*types.Package // import-resolution cache (non-test files only)
	overlay map[string]string         // import path → directory, for testdata packages
}

// NewLoader returns a loader for the module rooted at modRoot.
func NewLoader(modRoot string) (*Loader, error) {
	modPath, err := modulePath(modRoot)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer does not implement ImporterFrom")
	}
	return &Loader{
		ModPath: modPath,
		ModRoot: modRoot,
		fset:    fset,
		std:     std,
		cache:   map[string]*types.Package{},
	}, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// AddOverlay maps an import path onto a directory outside the module's
// normal layout, so multi-package testdata (src/b importing src/a under a
// fake mpicontend/... path) resolves. Register overlays before loading.
func (l *Loader) AddOverlay(importPath, dir string) {
	if l.overlay == nil {
		l.overlay = map[string]string{}
	}
	l.overlay[importPath] = dir
}

// modulePath reads the module path out of modRoot/go.mod.
func modulePath(modRoot string) (string, error) {
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", modRoot)
}

// Import resolves an import path for go/types: module-internal paths load
// from source under the module root, everything else through the stdlib
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	var pkg *types.Package
	var err error
	if src, ok := l.sourceDir(path); ok {
		pkg, err = l.checkSource(path, src, l)
	} else {
		pkg, err = l.std.ImportFrom(path, dir, mode)
	}
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// sourceDir maps an overlaid or module-internal import path onto its
// directory; ok is false for the paths the stdlib importer resolves.
func (l *Loader) sourceDir(path string) (dir string, ok bool) {
	if dir, ok := l.overlay[path]; ok {
		return dir, true
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		return filepath.Join(l.ModRoot, rel), true
	}
	return "", false
}

// checkSource type-checks the non-test files of dir as path, resolving
// its imports through imp.
func (l *Loader) checkSource(path, dir string, imp types.Importer) (*types.Package, error) {
	files, err := l.parseDir(dir, func(name string) bool {
		return !strings.HasSuffix(name, "_test.go")
	})
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: imp}
	return conf.Check(path, l.fset, files, nil)
}

// testImporter resolves an external test package's imports the way go
// test builds them: the package under test is its unit with the
// in-package _test.go files, so helpers an export_test.go defines are
// visible, and every source package that imports it, directly or not, is
// checked again against that unit, so both sides agree on its types.
type testImporter struct {
	l     *Loader
	under *types.Package
	pkgs  map[string]*types.Package // resolved imports, rechecked or not
	reach map[string]bool           // whether a path imports under
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	return ti.ImportFrom(path, "", 0)
}

func (ti *testImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == ti.under.Path() {
		return ti.under, nil
	}
	if p, ok := ti.pkgs[path]; ok {
		return p, nil
	}
	p, err := ti.l.ImportFrom(path, dir, mode)
	if err != nil {
		return nil, err
	}
	if src, ok := ti.l.sourceDir(path); ok && ti.reaches(p) {
		if p, err = ti.l.checkSource(path, src, ti); err != nil {
			return nil, err
		}
	}
	ti.pkgs[path] = p
	return p, nil
}

// reaches reports whether p imports the package under test, directly or
// through other imports.
func (ti *testImporter) reaches(p *types.Package) bool {
	r, ok := ti.reach[p.Path()]
	if ok {
		return r
	}
	for _, q := range p.Imports() {
		if q.Path() == ti.under.Path() || ti.reaches(q) {
			r = true
			break
		}
	}
	ti.reach[p.Path()] = r
	return r
}

// parseDir parses the .go files of dir accepted by keep (nil keeps all).
func (l *Loader) parseDir(dir string, keep func(name string) bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || (keep != nil && !keep(name)) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// newInfo returns a fully-populated types.Info for analysis.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// LoadDir loads the analysis units of one directory: the package itself
// (with its in-package test files) and, if present, the external _test
// package, which imports importPath as that first unit (testImporter).
// importPath is the directory's import path; it is used both for import
// resolution and for analyzer scoping.
func (l *Loader) LoadDir(dir, importPath string) ([]*Package, error) {
	all, err := l.parseDir(dir, nil)
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, nil
	}
	// Split files into the base package and an external test package.
	var baseName string
	for _, f := range all {
		name := f.Name.Name
		if !strings.HasSuffix(name, "_test") {
			baseName = name
			break
		}
	}
	var base, ext []*ast.File
	for _, f := range all {
		if baseName != "" && f.Name.Name == baseName+"_test" {
			ext = append(ext, f)
		} else {
			base = append(base, f)
		}
	}
	var pkgs []*Package
	if len(base) > 0 {
		p, err := l.check(importPath, importPath, dir, base, l)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	if len(ext) > 0 {
		// ext is split off only when there is a base package to test.
		imp := &testImporter{l: l, under: pkgs[0].Types, pkgs: map[string]*types.Package{}, reach: map[string]bool{}}
		p, err := l.check(importPath+"_test", importPath, dir, ext, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// check type-checks files as checkPath, resolving imports through imp and
// scoping the result under scopePath.
func (l *Loader) check(checkPath, scopePath, dir string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(checkPath, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{
		Path:  scopePath,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// PackageDirs walks the module rooted at modRoot and returns the relative
// directories containing .go files, sorted, skipping testdata, hidden, and
// vendor directories.
func PackageDirs(modRoot string) ([]string, error) {
	var dirs []string
	err := filepath.Walk(modRoot, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			name := fi.Name()
			if path != modRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			rel, err := filepath.Rel(modRoot, filepath.Dir(path))
			if err != nil {
				return err
			}
			if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
				dirs = append(dirs, rel)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}
