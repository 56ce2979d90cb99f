// Package sweep is the driver shell's parallel orchestrator: it fans
// independent, deterministic simulation points across a pool of OS-level
// worker goroutines and merges their results back into submission order,
// so callers observe byte-identical output at any worker count.
//
// sweep sits firmly on the driver-shell side of the repository's
// core/shell boundary (see docs/ARCHITECTURE.md): it is the one internal
// package allowed to use raw goroutines and sync primitives, because it
// never touches simulated state — each job constructs its own isolated
// sim engine and RNG from its captured parameters. The deterministic core
// (internal/sim and the packages above it) remains goroutine-free, and
// the nogoroutine analyzer enforces that split by package allowlist.
//
// Scheduling is one shared atomic index: each idle worker claims the next
// unclaimed job. Jobs are coarse (a whole simulation each), so one atomic
// add per job costs nothing, and load balancing still adapts to wildly
// uneven job costs (a chaos soak next to a table lookup): no worker idles
// while a job is unclaimed. Jobs also start in index order, so MapGroups'
// early groups finish, and stream out, first. Scheduling order is
// intentionally unobservable: results land in a slice indexed by job, and
// MapGroups emits streamed completions in group order, so callers cannot
// distinguish worker counts by anything but wall-clock time. A failing job
// stops the claiming of jobs above it at any worker count; the jobs below
// it still run, so the reported failure is the lowest failing index.
package sweep

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes workers <= 0:
// one worker per CPU, as the cmd tools default to.
func DefaultWorkers() int { return runtime.NumCPU() }

// clampWorkers normalizes the requested worker count for n jobs.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map runs fn(0) .. fn(n-1) across workers workers and returns the results
// in index order. The calling goroutine is one of the workers, so one
// worker runs every job serially on the caller; workers <= 0 means
// DefaultWorkers.
//
// A failure stops the claiming of jobs above it: a job whose index is
// higher than a known failure is skipped, and its result stays the zero
// value. Every job below the lowest failing index still runs, so the
// returned error is the one from the lowest failing index, independent of
// scheduling.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64   // the lowest unclaimed job index
	var failed atomic.Int64 // the lowest failing job index, n while none
	failed.Store(int64(n))
	work := func() {
		for i := next.Add(1) - 1; i < failed.Load(); i = next.Add(1) - 1 {
			results[i], errs[i] = fn(int(i))
			if errs[i] == nil {
				continue
			}
			for f := failed.Load(); i < f && !failed.CompareAndSwap(f, i); f = failed.Load() {
			}
		}
	}
	var wg sync.WaitGroup
	for w := clampWorkers(workers, n); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if f := failed.Load(); f < int64(n) {
		return results, fmt.Errorf("sweep: job %d: %w", f, errs[f])
	}
	return results, nil
}

// Run is Map for jobs that produce no value.
func Run(workers, n int, fn func(i int) error) error {
	_, err := Map(workers, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// MapGroups runs fn over a flat index space partitioned into contiguous
// groups (group g spans sizes[g] consecutive indices) and delivers each
// group's results, in group order, as soon as the group completes. It is
// the orchestrator behind `mpistorm -experiment all -jobs N`: experiment
// points from all groups share one worker pool so expensive and
// cheap experiments keep every worker fed, while the in-order emission
// makes the streamed per-group output byte-identical to a serial run.
//
// A group whose jobs all succeed is emitted only after every earlier
// group has been emitted. emit runs under an internal lock, on whichever
// worker finishes the last job it was waiting for, so it never runs
// concurrently with itself. If any job fails, groups from the first
// failing group onward are withheld — exactly the prefix a serial run
// would have produced — and the error of the lowest failing flat index is
// returned. If emit fails, nothing more is emitted and, absent a job
// failure, its error is returned.
func MapGroups[T any](workers int, sizes []int, fn func(i int) (T, error),
	emit func(g int, results []T) error) error {
	starts := make([]int, len(sizes)+1) // starts[g] is group g's first index
	for g, sz := range sizes {
		if sz < 0 {
			return fmt.Errorf("sweep: group %d has negative size %d", g, sz)
		}
		starts[g+1] = starts[g] + sz
	}
	results := make([]T, starts[len(sizes)])

	// groupOf maps a flat index to its group: the last group whose start
	// is <= i. Zero-size groups share their successor's start, so the
	// search always lands on the nonzero group that owns i.
	groupOf := func(i int) int {
		return sort.Search(len(sizes), func(g int) bool { return starts[g] > i }) - 1
	}

	// mu guards the bookkeeping below and serializes emit. remaining[g]
	// counts group g's jobs not yet succeeded; a failed job never counts
	// down, so its group holds next, and every group after it, back for
	// good.
	var mu sync.Mutex
	remaining := append([]int(nil), sizes...)
	next := 0 // the first group not yet emitted
	var emitErr error
	// drain emits every complete group from next on, in order. Empty
	// groups have no jobs to trigger them and pass straight through.
	drain := func() {
		for emitErr == nil && next < len(sizes) && remaining[next] == 0 {
			if err := emit(next, results[starts[next]:starts[next+1]]); err != nil {
				emitErr = fmt.Errorf("sweep: emit %d: %w", next, err)
			}
			next++
		}
	}
	drain()

	runErr := Run(workers, len(results), func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		results[i] = v
		g := groupOf(i)
		mu.Lock()
		defer mu.Unlock()
		remaining[g]--
		drain()
		return nil
	})
	if runErr != nil {
		return runErr
	}
	return emitErr
}
