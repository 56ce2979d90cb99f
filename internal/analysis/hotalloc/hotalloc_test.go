package hotalloc_test

import (
	"testing"

	"mpicontend/internal/analysis/analysistest"
	"mpicontend/internal/analysis/hotalloc"
)

// TestHotalloc runs the analyzer over two testdata packages as one unit:
// the root lives in src/b and the allocations it reaches live in src/a,
// so the findings depend on cross-package traversal, and an allow
// directive on one call edge prunes the subtree behind it.
func TestHotalloc(t *testing.T) {
	analysistest.RunPkgs(t, hotalloc.Analyzer, []analysistest.Pkg{
		{Dir: "testdata/src/a", ImportPath: "mpicontend/tdhotalloc/a"},
		{Dir: "testdata/src/b", ImportPath: "mpicontend/tdhotalloc/b"},
	})
}

// TestHotallocPartitioned runs the analyzer over the partitioned-readiness
// golden package: the persistent-bitmap idiom (allocate at rearm, pure
// word ops in the hotpath root, aggregate allocation on the caller's
// trigger side) produces no findings, while the traced variant of the
// root is flagged on both of its per-flip allocations.
func TestHotallocPartitioned(t *testing.T) {
	analysistest.Run(t, hotalloc.Analyzer, "testdata/src/p", "mpicontend/tdhotalloc/p")
}

// TestHotallocLocalAddr runs the analyzer over the reply-slot golden
// package: answering into a reused slot is silent, while boxing the
// address of a fresh local into an interface parameter is flagged.
func TestHotallocLocalAddr(t *testing.T) {
	analysistest.Run(t, hotalloc.Analyzer, "testdata/src/r", "mpicontend/tdhotalloc/r")
}
