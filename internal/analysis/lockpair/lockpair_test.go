package lockpair_test

import (
	"testing"

	"mpicontend/internal/analysis/analysistest"
	"mpicontend/internal/analysis/lockpair"
)

func TestGolden(t *testing.T) {
	// The fake import path keeps the analyzer's internal/mpi scope while
	// the sources live in this package's testdata.
	analysistest.Run(t, lockpair.Analyzer, "testdata/src/a",
		"mpicontend/internal/mpi/tdlockpair")
}

func TestScope(t *testing.T) {
	if lockpair.Analyzer.Applies("mpicontend/internal/telemetry") {
		t.Errorf("lockpair is specific to the MPI runtime package")
	}
	if !lockpair.Analyzer.Applies("mpicontend/internal/mpi") {
		t.Errorf("lockpair must apply to internal/mpi")
	}
}
