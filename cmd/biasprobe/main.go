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
	"strings"

	"mpicontend/internal/machine"
	"mpicontend/internal/simlock"
	"mpicontend/internal/trace"
	"mpicontend/internal/workloads"
)

func parseLock(s string) (simlock.Kind, error) {
	switch strings.ToLower(s) {
	case "mutex":
		return simlock.KindMutex, nil
	case "ticket":
		return simlock.KindTicket, nil
	case "priority":
		return simlock.KindPriority, nil
	case "tas":
		return simlock.KindTAS, nil
	case "mcs":
		return simlock.KindMCS, nil
	case "cohort":
		return simlock.KindCohort, nil
	case "socketpriority":
		return simlock.KindSocketPriority, nil
	default:
		return 0, fmt.Errorf("unknown lock %q (mutex|ticket|priority|tas|mcs|cohort|socketpriority)", s)
	}
}

func main() {
	lockName := flag.String("lock", "mutex", "critical-section arbitration to probe")
	threads := flag.Int("threads", 8, "threads per process")
	bytes := flag.Int64("bytes", 64, "message size")
	windows := flag.Int("windows", 10, "request windows per thread")
	scatter := flag.Bool("scatter", false, "scatter binding instead of compact")
	timeline := flag.Bool("timeline", false, "render the lock-ownership timeline")
	seed := flag.Uint64("seed", 42, "simulation seed")
	flag.Parse()

	lock, err := parseLock(*lockName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "biasprobe: %v\n", err)
		os.Exit(1)
	}
	binding := machine.Compact
	if *scatter {
		binding = machine.Scatter
	}

	tl := &trace.TimelineRecorder{Cap: 4096}
	p := workloads.ThroughputParams{
		Lock: lock, Binding: binding, Threads: *threads,
		MsgBytes: *bytes, Windows: *windows, Seed: *seed, TraceRank: 1,
	}
	if *timeline {
		p.Timeline = tl
	}
	r, err := workloads.Throughput(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "biasprobe: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("lock=%v threads=%d bytes=%d binding=%v\n", lock, *threads, *bytes, binding)
	fmt.Printf("  message rate     : %.0f msgs/s\n", r.RateMsgsPerSec)
	fmt.Printf("  bias factor core : %.2f   (fair = 1; paper measures ~2 for mutex)\n", r.BiasCore)
	fmt.Printf("  bias factor sock : %.2f   (fair = 1; paper measures ~1.25 for mutex)\n", r.BiasSocket)
	fmt.Printf("  dangling avg     : %.1f requests\n", r.DanglingAvg)
	if *timeline {
		fmt.Printf("  max grant share  : %.1f%%   longest same-thread run: %d\n",
			100*tl.MaxShare(), tl.LongestRun())
		fmt.Println()
		fmt.Print(tl.Render(72))
	}
}
