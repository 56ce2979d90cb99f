package nogoroutine_test

import (
	"testing"

	"mpicontend/internal/analysis/analysistest"
	"mpicontend/internal/analysis/nogoroutine"
)

func TestGolden(t *testing.T) {
	analysistest.Run(t, nogoroutine.Analyzer, "testdata/src/a",
		"mpicontend/internal/analysis/nogoroutine/testdata/src/a")
}

func TestScope(t *testing.T) {
	for _, exempt := range []string{
		"mpicontend/locks", "mpicontend/internal/sweep",
		"mpicontend/cmd/mpistorm",
	} {
		if nogoroutine.Analyzer.Applies(exempt) {
			t.Errorf("nogoroutine must not apply to %s", exempt)
		}
	}
	for _, core := range []string{
		"mpicontend/internal/sim", "mpicontend/internal/mpi",
		"mpicontend/internal/experiments",
	} {
		if !nogoroutine.Analyzer.Applies(core) {
			t.Errorf("nogoroutine must apply to %s", core)
		}
	}
}
