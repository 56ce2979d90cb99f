// Command mpistorm regenerates the tables and figures of "MPI+Threads:
// Runtime Contention and Remedies" (PPoPP'15) from the simulated
// reproduction.
//
// Usage:
//
//	mpistorm -list
//	mpistorm -experiment fig8a
//	mpistorm -experiment all -quick -jobs 4
//
// Each experiment prints an aligned table whose rows/series mirror the
// paper's plot; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// -jobs N fans the experiments' independent simulation points across N
// workers. Everything written to stdout (and to -json files) is
// byte-identical at every -jobs value, including -jobs 1's strictly
// serial path — parallelism only changes wall-clock time. Timing goes to
// stderr, which carries no determinism guarantee.
package main

//simcheck:allow-file nodeterm harness wall-clock timing of real runs; simulation state is seeded inside experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mpicontend/mpisim"
)

func main() {
	list := flag.Bool("list", false, "list available experiments and exit")
	exp := flag.String("experiment", "", "experiment id to run, or 'all'")
	quick := flag.Bool("quick", false, "run reduced sweeps (seconds instead of minutes)")
	chart := flag.Bool("chart", false, "render ASCII charts in addition to tables")
	jsonDir := flag.String("json", "", "also write each figure as <dir>/<id>.json (flat results schema)")
	seed := flag.Uint64("seed", 0, "base RNG seed (0 = default)")
	jobs := flag.Int("jobs", runtime.NumCPU(),
		"parallel workers for the point sweep (1 = serial; output is byte-identical either way)")
	progressFlag := flag.String("progress", "polling",
		"progress mode for the experiments that honour it: polling|strong|continuation|selective (see docs/PROGRESS.md)")
	flag.Parse()

	progress, err := mpisim.ParseProgressMode(*progressFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpistorm: %v\n", err)
		os.Exit(2)
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, id := range mpisim.Experiments() {
			fmt.Printf("  %s\n", id)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun one with: mpistorm -experiment <id> [-quick]")
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = mpisim.Experiments()
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "mpistorm: %v\n", err)
			os.Exit(1)
		}
	}

	emit := func(f mpisim.Figure) error {
		fmt.Printf("== %s — %s ==\n%s\n", f.ID, f.Title, f.Text)
		if *chart && f.Chart != "" {
			fmt.Println(f.Chart)
		}
		if *jsonDir != "" && f.Data != nil {
			data, err := f.Data.Marshal()
			if err != nil {
				return fmt.Errorf("marshal %s: %w", f.ID, err)
			}
			path := filepath.Join(*jsonDir, f.ID+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return err
			}
		}
		return nil
	}

	start := time.Now()
	err = mpisim.SweepFunc(
		mpisim.SweepConfig{IDs: ids, Quick: *quick, Seed: *seed, Jobs: *jobs,
			Progress: progress},
		func(r mpisim.SweepResult) error {
			for _, f := range r.Figures {
				if err := emit(f); err != nil {
					return err
				}
			}
			fmt.Fprintf(os.Stderr, "(%s done at %.1fs)\n", r.ID, time.Since(start).Seconds())
			return nil
		})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpistorm: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "(total %.1fs, jobs=%d)\n", time.Since(start).Seconds(), *jobs)
}
