// Command biasprobe runs the paper's §4.3 arbitration-fairness analysis:
// it traces every critical-section acquisition of the receiving runtime in
// the multithreaded throughput benchmark and reports the core- and
// socket-level bias factors of the chosen lock against a fair arbitration,
// the §4.4 dangling-request metric, and (with -timeline) an ASCII rendering
// of lock ownership over time in which monopolization is directly visible.
//
// Usage:
//
//	biasprobe -lock mutex -threads 8 -bytes 64 -timeline
package main

import (
	"flag"
	"fmt"
	"os"

	"mpicontend/internal/machine"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
	"mpicontend/internal/workloads"
)

func main() {
	lockName := flag.String("lock", "mutex", "critical-section arbitration to probe")
	threads := flag.Int("threads", 8, "threads per process")
	bytes := flag.Int64("bytes", 64, "message size")
	windows := flag.Int("windows", 10, "request windows per thread")
	scatter := flag.Bool("scatter", false, "scatter binding instead of compact")
	timeline := flag.Bool("timeline", false, "render the lock-ownership timeline")
	seed := flag.Uint64("seed", 42, "simulation seed")
	flag.Parse()

	lock, err := simlock.ParseKind(*lockName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "biasprobe: %v\n", err)
		os.Exit(1)
	}
	binding := machine.Compact
	if *scatter {
		binding = machine.Scatter
	}

	p := workloads.ThroughputParams{
		Lock: lock, Binding: binding, Threads: *threads,
		MsgBytes: *bytes, Windows: *windows, Seed: *seed,
		// The analyses are read from the recorder's folds; the timeline
		// also needs the span log of a logging recorder.
		Tel: telemetry.New(),
	}
	if *timeline {
		p.Tel = telemetry.NewTrace()
	}
	r, err := workloads.Throughput(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "biasprobe: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("lock=%v threads=%d bytes=%d binding=%v\n", lock, *threads, *bytes, binding)
	fmt.Printf("  message rate     : %.0f msgs/s\n", r.RateMsgsPerSec)
	a := r.Arbitration
	fmt.Printf("  bias factor core : %.2f   (fair = 1; paper measures ~2 for mutex)\n", a.BiasFactorCore)
	fmt.Printf("  bias factor sock : %.2f   (fair = 1; paper measures ~1.25 for mutex)\n", a.BiasFactorSocket)
	fmt.Printf("  dangling avg     : %.1f requests\n", a.DanglingAvg)
	if *timeline {
		// The receiver's section, the lock the analyses above read; its
		// last 4096 grants show the steady state.
		tl := p.Tel.Timeline("cs[r1]", 4096)
		fmt.Printf("  max grant share  : %.1f%%   longest same-thread run: %d\n",
			100*tl.MaxShare(), tl.LongestRun())
		fmt.Println()
		fmt.Print(tl.Render(72))
	}
}
