// Package d imports the package under test, so an external test of c that
// imports d needs d checked against c's test unit.
package d

import "mpicontend/internal/analysis/pkgdoc/testdata/src/c"

// Wrap returns a Box holding v.
func Wrap(v int) c.Box { return c.New(v) }
