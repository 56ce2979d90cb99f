// Command mpitrace records a deterministic execution trace of an
// experiment's representative workload and exports it for inspection:
//
//	mpitrace -experiment fig8a -quick -out artifacts/trace
//
// writes trace.json (Chrome trace_event format — open in ui.perfetto.dev
// or chrome://tracing) and profile.json (lock-contention, progress-engine
// and critical-path analysis), and prints the profile as text. Traces key
// entirely off the simulated clock: the same -experiment/-quick/-seed
// triple always produces byte-identical files.
//
// -experiment also accepts a comma-separated id list or 'all'. With more
// than one experiment each trace lands in <out>/<id>/, only the summary
// lines print (no profile text), and -jobs N traces experiments across N
// workers — stdout and the written files are byte-identical at every
// -jobs value.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"mpicontend/internal/telemetry"
	"mpicontend/mpisim"
)

// traced is one experiment's captured telemetry, produced on a worker and
// rendered serially in id order.
type traced struct {
	tel  *mpisim.Telemetry
	desc string
}

func main() {
	exp := flag.String("experiment", "", "experiment id to trace, a comma-separated list, or 'all' (see mpistorm -list)")
	quick := flag.Bool("quick", false, "trace the reduced workload")
	seed := flag.Uint64("seed", 0, "base RNG seed (0 = default)")
	out := flag.String("out", ".", "directory to write trace.json and profile.json into (per-experiment subdirectories when tracing several)")
	check := flag.Bool("check", false, "validate the emitted trace and profile against their schemas")
	jobs := flag.Int("jobs", runtime.NumCPU(),
		"parallel workers when tracing several experiments (1 = serial; output is byte-identical either way)")
	progressFlag := flag.String("progress", "polling",
		"progress mode for the probes that honour it: polling|strong|continuation|selective (see docs/PROGRESS.md)")
	flag.Parse()

	if *exp == "" {
		fmt.Fprintln(os.Stderr, "mpitrace: -experiment is required (see mpistorm -list)")
		os.Exit(2)
	}
	progress, err := mpisim.ParseProgressMode(*progressFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpitrace: %v\n", err)
		os.Exit(2)
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = mpisim.Experiments()
	}

	// Tracing an experiment is an isolated simulation, so several trace
	// like any other point sweep: fan across workers, render in id order.
	results := make([]traced, len(ids))
	err = mpisim.RunPoints(*jobs, len(ids), func(i int) error {
		tel, desc, err := mpisim.TraceExperiment(ids[i],
			mpisim.Options{Quick: *quick, Seed: *seed, Progress: progress})
		if err != nil {
			return err
		}
		results[i] = traced{tel: tel, desc: desc}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpitrace: %v\n", err)
		os.Exit(1)
	}

	multi := len(ids) > 1
	for i, id := range ids {
		dir := *out
		if multi {
			dir = filepath.Join(*out, id)
		}
		if err := render(id, results[i], dir, *check, multi); err != nil {
			fmt.Fprintf(os.Stderr, "mpitrace: %v\n", err)
			os.Exit(1)
		}
	}
}

// render validates, writes, and reports one experiment's trace. In multi
// mode only the summary lines print; a single experiment also prints the
// full profile text, exactly as earlier single-experiment releases did.
func render(id string, r traced, dir string, check, multi bool) error {
	trace := r.tel.PerfettoJSON()
	profile, err := r.tel.ProfileJSON()
	if err != nil {
		return fmt.Errorf("marshal profile: %w", err)
	}
	if check {
		if err := telemetry.ValidateTrace(trace); err != nil {
			return fmt.Errorf("trace validation: %w", err)
		}
		if err := telemetry.ValidateProfile(profile); err != nil {
			return fmt.Errorf("profile validation: %w", err)
		}
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tracePath := filepath.Join(dir, "trace.json")
	profilePath := filepath.Join(dir, "profile.json")
	if err := os.WriteFile(tracePath, trace, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(profilePath, profile, 0o644); err != nil {
		return err
	}

	fmt.Printf("traced %s (%s): %d spans\n", id, r.desc, r.tel.Spans())
	fmt.Printf("wrote %s (%d bytes) and %s (%d bytes)\n\n",
		tracePath, len(trace), profilePath, len(profile))
	if !multi {
		fmt.Print(r.tel.ProfileText())
	}
	return nil
}
