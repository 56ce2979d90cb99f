package c_test

import (
	"mpicontend/internal/analysis/pkgdoc/testdata/src/c"
	"mpicontend/internal/analysis/pkgdoc/testdata/src/d"
)

// use calls Get, which only export_test.go defines, on a Box that d
// built: d's Box must be the same type as the one Get takes.
func use() int { return c.Get(d.Wrap(1)) }

var _ = use
