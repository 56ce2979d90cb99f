package mpicontend

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
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
