// Package analysis is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis, built on the standard library's go/ast
// and go/types. It exists because this repository is stdlib-only: the
// simcheck analyzers (nodeterm, lockpair, nogoroutine, maporder, pkgdoc)
// plug into this framework and are driven by cmd/simcheck and by the
// analysistest test harness.
//
// The API mirrors the upstream shape — an Analyzer holds a Run function
// that receives a Pass with the parsed files and full type information for
// one package — so the analyzers could be ported to the real framework by
// changing imports.
//
// # Suppressing diagnostics
//
// A diagnostic can be suppressed with an allow directive comment:
//
//	//simcheck:allow <rule> <reason>
//
// placed on the offending line or on the line directly above it. The rule
// must be the analyzer name (or "all") and the reason is mandatory — a
// directive without a reason is ignored, so the diagnostic still fires.
// The variant
//
//	//simcheck:allow-file <rule> <reason>
//
// suppresses the rule for the whole file, for files that are legitimately
// outside the simulation discipline (real-threads benchmark harnesses).
//
// A directive that suppresses nothing is itself a finding: after RunAll,
// every directive for a rule that ran but covered no diagnostic and no
// call-graph edge is reported at its own line as stale, so dead
// directives cannot pile up unseen.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mpicontend/internal/analysis/callgraph"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name is the rule name used in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Applies reports whether the analyzer checks the package with the
	// given import path. Nil means it applies everywhere.
	Applies func(importPath string) bool
	// Run performs the check, reporting findings through pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one finding, positioned for the driver's output.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Path     string // import path of the package under analysis
	Pkg      *types.Package
	Info     *types.Info

	// Graph is the call graph over every package loaded in this run,
	// with per-function facts; interprocedural analyzers (lockorder,
	// hotalloc, the taint consumers) walk it across package boundaries.
	// A node belongs to this pass's package when node.Unit.Pkg == Pkg.
	Graph *callgraph.Graph

	diags  *[]Diagnostic
	allows *AllowIndex
}

// directive is one parsed allow directive.
type directive struct {
	pos  token.Position // the comment's own position
	rule string
	used bool // it suppressed a diagnostic or a call-graph edge
}

// fileAllows holds the parsed allow directives of one file.
type fileAllows struct {
	list     []*directive
	fileWide map[string][]*directive
	byLine   map[int]map[string][]*directive
}

// allowPrefix introduces line-scoped directives; allowFilePrefix file-wide
// ones. Both require a reason after the rule name.
const (
	allowPrefix     = "//simcheck:allow "
	allowFilePrefix = "//simcheck:allow-file "
)

// parseAllows extracts the allow directives of f. Malformed directives
// (no rule, or rule without a reason) are ignored so the underlying
// diagnostic still fires and prompts a real justification.
func parseAllows(fset *token.FileSet, f *ast.File) *fileAllows {
	fa := &fileAllows{fileWide: map[string][]*directive{}, byLine: map[int]map[string][]*directive{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			fileWide := false
			var rest string
			switch {
			case strings.HasPrefix(text, allowFilePrefix):
				fileWide = true
				rest = text[len(allowFilePrefix):]
			case strings.HasPrefix(text, allowPrefix):
				rest = text[len(allowPrefix):]
			default:
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				continue // rule without a reason: not a valid suppression
			}
			d := &directive{pos: fset.Position(c.Pos()), rule: fields[0]}
			fa.list = append(fa.list, d)
			if fileWide {
				fa.fileWide[d.rule] = append(fa.fileWide[d.rule], d)
				continue
			}
			for _, l := range []int{d.pos.Line, d.pos.Line + 1} {
				if fa.byLine[l] == nil {
					fa.byLine[l] = map[string][]*directive{}
				}
				fa.byLine[l][d.rule] = append(fa.byLine[l][d.rule], d)
			}
		}
	}
	return fa
}

// AllowIndex caches parsed allow directives per file, for allow checks
// outside a Pass — interprocedural analyzers consult it when deciding
// whether to traverse a call edge in a foreign package.
type AllowIndex struct {
	fset  *token.FileSet
	cache map[*ast.File]*fileAllows
}

// NewAllowIndex returns an empty index over the given file set.
func NewAllowIndex(fset *token.FileSet) *AllowIndex {
	return &AllowIndex{fset: fset, cache: map[*ast.File]*fileAllows{}}
}

// file returns the parsed directives of f.
func (ai *AllowIndex) file(f *ast.File) *fileAllows {
	fa := ai.cache[f]
	if fa == nil {
		fa = parseAllows(ai.fset, f)
		ai.cache[f] = fa
	}
	return fa
}

// Allowed reports whether an allow directive for rule (or "all") covers
// pos in one of files, and marks every such directive used.
func (ai *AllowIndex) Allowed(files []*ast.File, pos token.Pos, rule string) bool {
	position := ai.fset.Position(pos)
	allowed := false
	for _, f := range files {
		if ai.fset.Position(f.Pos()).Filename != position.Filename {
			continue
		}
		fa := ai.file(f)
		for _, r := range []string{rule, "all"} {
			for _, ds := range [][]*directive{fa.fileWide[r], fa.byLine[position.Line][r]} {
				for _, d := range ds {
					d.used = true
					allowed = true
				}
			}
		}
	}
	return allowed
}

// stale returns a diagnostic for every directive in pkgs' files whose rule
// is in ran but that suppressed nothing. Each file belongs to one package,
// so each directive is seen once.
func (ai *AllowIndex) stale(pkgs []*Package, ran map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range ai.file(f).list {
				if ran[d.rule] && !d.used {
					diags = append(diags, Diagnostic{
						Pos:     d.pos,
						Rule:    d.rule,
						Message: fmt.Sprintf("stale allow directive: it suppresses no %s finding", d.rule),
					})
				}
			}
		}
	}
	return diags
}

// allowed reports whether a diagnostic of this pass's rule at pos is
// suppressed by an allow directive.
func (p *Pass) allowed(pos token.Pos) bool {
	return p.allows.Allowed(p.Files, pos, p.Analyzer.Name)
}

// Reportf records a diagnostic at pos unless an allow directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	if p.allowed(pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Run applies each applicable analyzer to one loaded package. The call
// graph the interprocedural analyzers see covers only that package; use
// RunAll to give them the whole module.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunAll([]*Package{pkg}, analyzers)
}

// BuildGraph constructs the call graph + facts layer over the loaded
// packages, in the deterministic order given.
func BuildGraph(pkgs []*Package) *callgraph.Graph {
	if len(pkgs) == 0 {
		return callgraph.Build(token.NewFileSet(), nil)
	}
	units := make([]*callgraph.Unit, 0, len(pkgs))
	for _, p := range pkgs {
		units = append(units, &callgraph.Unit{
			Path:  p.Path,
			Files: p.Files,
			Pkg:   p.Types,
			Info:  p.Info,
		})
	}
	return callgraph.Build(pkgs[0].Fset, units)
}

// RunAll builds one call graph over every loaded package, then applies
// each applicable analyzer to each package with that shared graph, and
// returns the diagnostics sorted by position. Interprocedural analyzers
// are expected to report only at positions inside the pass's own package,
// so diagnostics stay deduplicated and allow directives apply where the
// code is. Allow directives for a rule that ran but suppressed nothing
// are reported as stale.
func RunAll(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	if len(pkgs) == 0 {
		return diags, nil
	}
	graph := BuildGraph(pkgs)
	allows := NewAllowIndex(pkgs[0].Fset)
	ran := map[string]bool{}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.Path) {
				continue
			}
			ran[a.Name], ran["all"] = true, true
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Path:     pkg.Path,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Graph:    graph,
				diags:    &diags,
				allows:   allows,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	diags = append(diags, allows.stale(pkgs, ran)...)
	SortDiagnostics(diags)
	return diags, nil
}

// Allows exposes the pass's allow index for analyzers that prune their own
// traversals (hotalloc skips call edges carrying an allow directive).
func (p *Pass) Allows() *AllowIndex { return p.allows }

// SortDiagnostics orders diagnostics by file, line, column, rule, message
// so driver output is stable.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// PathHasSegment reports whether the import path contains seg as a whole
// slash-separated element — the helper analyzers use for scoping.
func PathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}
