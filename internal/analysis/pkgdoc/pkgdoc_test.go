package pkgdoc_test

import (
	"testing"

	"mpicontend/internal/analysis/analysistest"
	"mpicontend/internal/analysis/pkgdoc"
)

func TestGoldenMissing(t *testing.T) {
	analysistest.Run(t, pkgdoc.Analyzer, "testdata/src/a",
		"mpicontend/internal/analysis/pkgdoc/testdata/src/a")
}

func TestGoldenWrongForm(t *testing.T) {
	analysistest.Run(t, pkgdoc.Analyzer, "testdata/src/b",
		"mpicontend/internal/analysis/pkgdoc/testdata/src/b")
}

// TestGoldenExportTest loads an external test package the way go test
// builds it: it calls a helper from its package's export_test.go, on a
// value made by a package that itself imports the package under test.
func TestGoldenExportTest(t *testing.T) {
	analysistest.RunPkgs(t, pkgdoc.Analyzer, []analysistest.Pkg{
		{Dir: "testdata/src/c", ImportPath: "mpicontend/internal/analysis/pkgdoc/testdata/src/c"},
		{Dir: "testdata/src/d", ImportPath: "mpicontend/internal/analysis/pkgdoc/testdata/src/d"},
	})
}
