package maporder_test

import (
	"testing"

	"mpicontend/internal/analysis/analysistest"
	"mpicontend/internal/analysis/maporder"
)

func TestGolden(t *testing.T) {
	analysistest.Run(t, maporder.Analyzer, "testdata/src/a",
		"mpicontend/internal/analysis/maporder/testdata/src/a")
}

// TestLaundering checks the cross-package pass: the map range lives in
// an exempt locks-layer package, the report lands at the call site in
// checked code.
func TestLaundering(t *testing.T) {
	analysistest.RunPkgs(t, maporder.Analyzer, []analysistest.Pkg{
		{Dir: "testdata/src/locks", ImportPath: "mpicontend/locks/stats"},
		{Dir: "testdata/src/b", ImportPath: "mpicontend/tdmaporder/b"},
	})
}

func TestScope(t *testing.T) {
	if maporder.Analyzer.Applies("mpicontend/locks") {
		t.Errorf("maporder must not apply to the real-threads lock library")
	}
	if !maporder.Analyzer.Applies("mpicontend/internal/telemetry") {
		t.Errorf("maporder must apply to reporting packages")
	}
}
