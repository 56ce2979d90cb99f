// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulated substrate. Each experiment is written as
// a builder that declares its independent simulation Points through a
// Plan (the compute phase) and assembles report tables from their Results
// (the render phase); RunAllFunc fans the points of many experiments
// across the internal/sweep worker pool with byte-identical output at
// every worker count, one included. The cmd tools
// and the repository-level benchmarks are thin wrappers around this
// registry.
//
// experiments sits on the driver-shell side of the core/shell boundary
// (docs/ARCHITECTURE.md): it orchestrates deterministic runs but contains
// no goroutines itself — parallelism lives in internal/sweep, and every
// Point builds its own isolated engine from the run's seed.
package experiments

import (
	"fmt"
	"sort"

	"mpicontend/internal/mpi"
	"mpicontend/internal/report"
)

// Options tunes experiment size.
type Options struct {
	// Quick shrinks sweeps and iteration counts so the full registry can
	// run in seconds (used by tests and benchmarks); the default sizes
	// mirror the paper's axes.
	Quick bool
	Seed  uint64
	// Progress overrides the progress mode of the probes that honour it
	// (the N2N-shaped ones; see Probe). The progress experiment sweeps
	// all modes itself and ignores this. Default polling.
	Progress mpi.ProgressMode
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// msgSizes returns the message-size sweep (bytes).
func (o Options) msgSizes() []int64 {
	if o.Quick {
		return []int64{1, 64, 1024, 16384}
	}
	return []int64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
}

// windows returns how many request windows each benchmark thread runs.
func (o Options) windows() int {
	if o.Quick {
		return 4
	}
	return 10
}

// Experiment is a runnable reproduction of one table or figure. Its
// builder declares simulation points and renders tables through a Plan;
// see plan.go for the Points/Render lifecycle.
type Experiment struct {
	ID    string
	Title string
	build func(Options, *Plan) ([]*report.Table, error)
}

// registry holds all experiments keyed by id.
var registry = map[string]Experiment{}

func register(id, title string, build func(Options, *Plan) ([]*report.Table, error)) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = Experiment{ID: id, Title: title, build: build}
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (try one of %v)", id, IDs())
	}
	return e, nil
}

// IDs lists all registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
