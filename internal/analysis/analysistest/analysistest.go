// Package analysistest runs a simcheck analyzer over a testdata package
// and matches its diagnostics against golden expectations embedded in the
// source, mirroring golang.org/x/tools/go/analysis/analysistest:
//
//	m := map[int]int{}
//	for k := range m { // want `nondeterministic iteration order`
//		fmt.Println(k)
//	}
//
// Each `// want` comment holds one or more backquoted or double-quoted
// regular expressions, matched (unordered) against the diagnostics
// reported on that line. Unmatched expectations and unexpected
// diagnostics both fail the test.
package analysistest

import (
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mpicontend/internal/analysis"
)

// expectation is one want-regexp at a file line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// Pkg names one testdata package for RunPkgs: its directory (relative to
// the test's working directory) and the import path it is analyzed under.
type Pkg struct {
	Dir        string
	ImportPath string
}

// Run analyzes the package in dir (relative to the test's working
// directory) as if it had the given import path, and checks the
// diagnostics against the `// want` comments in its files.
func Run(t *testing.T, a *analysis.Analyzer, dir, importPath string) {
	t.Helper()
	if a.Applies != nil && !a.Applies(importPath) {
		t.Fatalf("analysistest: analyzer %s does not apply to import path %s", a.Name, importPath)
	}
	RunPkgs(t, a, []Pkg{{Dir: dir, ImportPath: importPath}})
}

// RunPkgs analyzes several testdata packages as one unit — a shared call
// graph over all of them — so cross-package fact propagation (src/b
// importing src/a) can be golden-tested. Every package's import path is
// registered as a loader overlay first, so the packages may import each
// other by their fake mpicontend/... paths. Packages the analyzer does not
// apply to still join the graph (they model exempt zones) but report no
// local diagnostics. `// want` comments are honored in every directory.
func RunPkgs(t *testing.T, a *analysis.Analyzer, pkgs []Pkg) {
	t.Helper()
	modRoot, err := findModRoot()
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	loader, err := analysis.NewLoader(modRoot)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	absDirs := make([]string, len(pkgs))
	for i, p := range pkgs {
		abs, err := filepath.Abs(p.Dir)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		absDirs[i] = abs
		loader.AddOverlay(p.ImportPath, abs)
	}

	var loaded []*analysis.Package
	var wants []*expectation
	for i, p := range pkgs {
		lp, err := loader.LoadDir(absDirs[i], p.ImportPath)
		if err != nil {
			t.Fatalf("analysistest: loading %s: %v", p.Dir, err)
		}
		if len(lp) == 0 {
			t.Fatalf("analysistest: no Go files in %s", p.Dir)
		}
		loaded = append(loaded, lp...)
		w, err := parseWants(absDirs[i])
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		wants = append(wants, w...)
	}

	diags, err := analysis.RunAll(loaded, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}

	for _, d := range diags {
		if !consume(wants, d) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no diagnostic matching %q", filepath.Base(w.file), w.line, w.re)
		}
	}
}

// consume marks the first unused expectation matching the diagnostic.
func consume(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if !w.used && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.used = true
			return true
		}
	}
	return false
}

// parseWants scans every .go file in dir for `// want` comments using the
// Go scanner, so string literals containing "want" are not misparsed.
func parseWants(dir string) ([]*expectation, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		fset := token.NewFileSet()
		file := fset.AddFile(path, fset.Base(), len(src))
		var s scanner.Scanner
		s.Init(file, src, nil, scanner.ScanComments)
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok != token.COMMENT {
				continue
			}
			text := strings.TrimPrefix(lit, "//")
			// A comment that holds something else first, such as an
			// allow directive expected to be stale, carries its
			// expectation after a second "// want".
			if i := strings.Index(text, "// want "); i >= 0 {
				text = text[i+len("// "):]
			}
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, "want ")
			if !ok {
				continue
			}
			line := fset.Position(pos).Line
			res, err := parseRegexps(rest)
			if err != nil {
				return nil, err
			}
			for _, re := range res {
				wants = append(wants, &expectation{file: path, line: line, re: re})
			}
		}
	}
	return wants, nil
}

// parseRegexps splits a want payload into its quoted regexps.
func parseRegexps(s string) ([]*regexp.Regexp, error) {
	var res []*regexp.Regexp
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return res, nil
		}
		var lit string
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				lit, s = s[1:], ""
			} else {
				lit, s = s[1:1+end], s[end+2:]
			}
		case '"':
			// Find the closing quote, honoring escapes, then unquote.
			i := 1
			for i < len(s) && (s[i] != '"' || s[i-1] == '\\') {
				i++
			}
			var err error
			lit, err = strconv.Unquote(s[:i+1])
			if err != nil {
				return nil, err
			}
			s = s[i+1:]
		default:
			// Bare word: match it literally.
			fields := strings.SplitN(s, " ", 2)
			lit, s = regexp.QuoteMeta(fields[0]), ""
			if len(fields) == 2 {
				s = fields[1]
			}
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			return nil, err
		}
		res = append(res, re)
	}
}

// findModRoot walks up from the working directory to the go.mod root.
func findModRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
