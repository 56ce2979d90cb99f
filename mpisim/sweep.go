package mpisim

import (
	"mpicontend/internal/experiments"
	"mpicontend/internal/report"
	"mpicontend/internal/sweep"
)

// SweepConfig parametrizes a parallel experiment sweep: which experiments
// to regenerate, at what size and seed, across how many workers.
type SweepConfig struct {
	// IDs are the experiment ids to run, in emission order (nil or empty
	// = every registered experiment, sorted).
	IDs []string
	// Quick shrinks the sweeps (see Options).
	Quick bool
	// Seed is the base RNG seed (0 = default).
	Seed uint64
	// Jobs is the worker count: 1 runs everything serially on the calling
	// goroutine, <= 0 means one worker per CPU. Output is byte-identical
	// at every value — parallelism only changes wall-clock time.
	Jobs int
	// Progress sets the progress mode for experiments that honour it
	// (see Options). Default PollingProgress.
	Progress ProgressMode
}

// SweepResult is one experiment's rendered figures.
type SweepResult struct {
	ID      string
	Figures []Figure
}

// Sweep regenerates the configured experiments, fanning their independent
// simulation points across Jobs workers (each point builds its own engine
// and RNG from the seed), and returns the figures in IDs order. The
// result is byte-identical to running each experiment serially.
func Sweep(c SweepConfig) ([]SweepResult, error) {
	var out []SweepResult
	err := SweepFunc(c, func(r SweepResult) error {
		out = append(out, r)
		return nil
	})
	return out, err
}

// SweepFunc is Sweep in streaming form: emit is called exactly once per
// experiment, in IDs order, as soon as that experiment's figures are
// ready — workers keep crunching later experiments' points while earlier
// ones emit. emit may run on an internal worker goroutine, but never
// concurrently with itself. If a point fails, the experiments before the
// failing one still emit (the same prefix a serial run would print) and
// the first failure's error is returned.
func SweepFunc(c SweepConfig, emit func(SweepResult) error) error {
	ids := c.IDs
	if len(ids) == 0 {
		ids = Experiments()
	}
	jobs := c.Jobs
	if jobs <= 0 {
		jobs = sweep.DefaultWorkers()
	}
	o := experiments.Options{Quick: c.Quick, Seed: c.Seed, Progress: c.Progress}
	return experiments.RunAllFunc(ids, o, jobs,
		func(idx int, id string, tables []*report.Table) error {
			e, err := experiments.Get(id)
			if err != nil {
				return err
			}
			return emit(SweepResult{ID: id, Figures: figuresFor(e, tables)})
		})
}

// RunPoints exposes the sweep orchestrator for custom parameter studies:
// it executes run(0) .. run(n-1) across jobs workers (jobs 1 = serial,
// <= 0 = one per CPU) and returns the lowest failing index's error, if
// any. Each callback must be self-contained the way the library's own
// experiment points are — build a fresh config per index and let the
// facade construct its own engine — and then any jobs value yields
// identical results.
func RunPoints(jobs, n int, run func(i int) error) error {
	return sweep.Run(jobs, n, run)
}
