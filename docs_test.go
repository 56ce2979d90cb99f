package mpicontend

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// packageMapRows returns the first-column paths of the package map tables
// in docs/ARCHITECTURE.md ("| `internal/sim` | ..." rows under the
// "## Package map" heading).
func packageMapRows(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(filepath.Join("docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []string
	inMap := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			inMap = line == "## Package map"
			continue
		}
		if !inMap || !strings.HasPrefix(line, "| `") {
			continue
		}
		cell := strings.TrimPrefix(line, "| `")
		if i := strings.IndexByte(cell, '`'); i > 0 {
			rows = append(rows, cell[:i])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("docs/ARCHITECTURE.md has no package map rows")
	}
	return rows
}

// covers reports whether the package map row names pkg (a slash path
// relative to the module root) or one of its parents; a row "dir/*"
// covers everything under dir.
func covers(row, pkg string) bool {
	row = strings.TrimSuffix(row, "/*")
	return row == pkg || strings.HasPrefix(pkg, row+"/")
}

// TestPackageMapCoversEveryPackage: every package of the module has a
// row of the architecture doc's package map, its own or a parent's, and
// every row names a directory that exists, so a package cannot be added
// or removed without the map following.
func TestPackageMapCoversEveryPackage(t *testing.T) {
	rows := packageMapRows(t)
	for _, row := range rows {
		dirs, err := filepath.Glob(filepath.FromSlash(row))
		if err != nil || len(dirs) == 0 {
			t.Errorf("package map row %q names no directory", row)
			continue
		}
		for _, d := range dirs {
			if fi, err := os.Stat(d); err != nil || !fi.IsDir() {
				t.Errorf("package map row %q: %s is not a directory", row, d)
			}
		}
	}

	out, err := exec.Command("go", "list", "-f", "{{.Dir}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range strings.Fields(string(out)) {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.ToSlash(rel)
		covered := false
		for _, row := range rows {
			covered = covered || covers(row, pkg)
		}
		if !covered {
			t.Errorf("package %s has no row in the docs/ARCHITECTURE.md package map", pkg)
		}
	}
}

// hotpathRoots returns the functions whose doc comment carries a
// //simcheck:hotpath directive, in the non-test, non-testdata Go files of
// the repository: a method as Type.Method, a plain function as
// package.Function.
func hotpathRoots(t *testing.T) map[string]bool {
	t.Helper()
	roots := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				if strings.HasPrefix(c.Text, "//simcheck:hotpath") {
					roots[funcName(f, fn)] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return roots
}

// funcName names a method by its receiver's type and a plain function by
// its package.
func funcName(f *ast.File, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return f.Name.Name + "." + fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// dottedName matches a backticked Type.Method (or package.Function) name.
var dottedName = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*\\.[A-Za-z_][A-Za-z0-9_]*)`")

// documentedRoots returns the dotted names in the hotalloc bullet of
// docs/ARCHITECTURE.md: the bullet's first line and its indented
// continuation lines.
func documentedRoots(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	roots := map[string]bool{}
	in := false
	for _, line := range strings.Split(string(b), "\n") {
		switch {
		case strings.HasPrefix(line, "- **Zero-alloc hot paths (`hotalloc`).**"):
			in = true
		case !strings.HasPrefix(line, "  "):
			in = false
		}
		if in {
			for _, m := range dottedName.FindAllStringSubmatch(line, -1) {
				roots[m[1]] = true
			}
		}
	}
	if len(roots) == 0 {
		t.Fatal("docs/ARCHITECTURE.md has no hotalloc bullet naming roots")
	}
	return roots
}

// TestHotpathRootsDocumented: the hotalloc bullet of the architecture doc
// names exactly the //simcheck:hotpath roots in the source, so a root
// cannot be added or removed without the doc following.
func TestHotpathRootsDocumented(t *testing.T) {
	src, doc := hotpathRoots(t), documentedRoots(t)
	var missing, stale []string
	for name := range src {
		if !doc[name] {
			missing = append(missing, name)
		}
	}
	for name := range doc {
		if !src[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, name := range missing {
		t.Errorf("hotpath root %s is not named in the hotalloc bullet of docs/ARCHITECTURE.md", name)
	}
	for _, name := range stale {
		t.Errorf("docs/ARCHITECTURE.md names hotpath root %s, which no //simcheck:hotpath marks", name)
	}
}
