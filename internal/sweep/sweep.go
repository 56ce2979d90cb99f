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
// OrderedMerge re-serializes streamed completions, so callers cannot
// distinguish worker counts by anything but wall-clock time.
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

// Map runs fn(0) .. fn(n-1) across a pool of workers goroutines and
// returns the results in index order. workers <= 1 runs serially on the
// calling goroutine (the exact code path a serial caller would have
// written); workers <= 0 means DefaultWorkers.
//
// Every job runs to completion even if another job fails, so a partial
// failure still yields a deterministic outcome: the returned error is the
// one from the lowest failing index, independent of scheduling.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	if workers = clampWorkers(workers, n); workers == 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("sweep: job %d: %w", i, err)
			}
			results[i] = v
		}
		return results, firstErr
	}

	var next atomic.Int64 // the lowest unclaimed job index
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				results[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("sweep: job %d: %w", i, err)
		}
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

// OrderedMerge re-serializes indexed completions: Put may be called from
// any goroutine in any order, and emit is invoked exactly once per index,
// in strictly increasing index order, as soon as all predecessors have
// arrived. Emission happens on whichever goroutine closes the gap, under
// an internal lock, so emit itself never needs synchronization.
//
// If emit returns an error the merge turns sticky: no further emissions
// happen and Err reports the first failure. Indices that never arrive
// simply leave the merge parked at their position — callers that can fail
// mid-stream use this to guarantee the emitted prefix matches what a
// serial run would have produced before the failure.
type OrderedMerge[T any] struct {
	mu      sync.Mutex
	next    int
	pending map[int]T
	emit    func(i int, v T) error
	err     error
}

// NewOrderedMerge returns a merge that starts emitting at index 0.
func NewOrderedMerge[T any](emit func(i int, v T) error) *OrderedMerge[T] {
	return &OrderedMerge[T]{pending: map[int]T{}, emit: emit}
}

// Put delivers index i's value and drains every now-contiguous index.
func (m *OrderedMerge[T]) Put(i int, v T) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pending[i] = v
	for m.err == nil {
		nv, ok := m.pending[m.next]
		if !ok {
			return
		}
		delete(m.pending, m.next)
		if err := m.emit(m.next, nv); err != nil {
			m.err = fmt.Errorf("sweep: emit %d: %w", m.next, err)
			return
		}
		m.next++
	}
}

// Err returns the first emit failure, if any.
func (m *OrderedMerge[T]) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Emitted reports how many leading indices have been emitted so far.
func (m *OrderedMerge[T]) Emitted() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.next
}

// MapGroups runs fn over a flat index space partitioned into contiguous
// groups (group g spans sizes[g] consecutive indices) and delivers each
// group's results, in group order, as soon as the group completes. It is
// the orchestrator behind `mpistorm -experiment all -jobs N`: experiment
// points from all groups share one worker pool so expensive and
// cheap experiments keep every worker fed, while the ordered merge makes
// the streamed per-group output byte-identical to a serial run.
//
// A group whose jobs all succeed is emitted only after every earlier
// group has been emitted. If any job fails, groups from the first failing
// group onward are withheld — exactly the prefix a serial run would have
// produced — and the error of the lowest failing flat index is returned.
func MapGroups[T any](workers int, sizes []int, fn func(i int) (T, error),
	emit func(g int, results []T) error) error {
	starts := make([]int, len(sizes))
	total := 0
	for g, sz := range sizes {
		if sz < 0 {
			return fmt.Errorf("sweep: group %d has negative size %d", g, sz)
		}
		starts[g] = total
		total += sz
	}

	merge := NewOrderedMerge[[]T](emit)
	var mu sync.Mutex // guards remaining and firstErr bookkeeping
	remaining := make([]int, len(sizes))
	groupOK := make([]bool, len(sizes))
	for g, sz := range sizes {
		remaining[g] = sz
		groupOK[g] = true
	}
	results := make([]T, total)

	// groupOf maps a flat index to its group: the last group whose start
	// is <= i. Zero-size groups share their successor's start, so the
	// search always lands on the nonzero group that owns i.
	groupOf := func(i int) int {
		return sort.Search(len(starts), func(g int) bool { return starts[g] > i }) - 1
	}

	// Empty groups have no jobs to trigger them; seed the merge up front.
	for g, sz := range sizes {
		if sz == 0 {
			merge.Put(g, nil)
		}
	}

	runErr := Run(workers, total, func(i int) error {
		v, err := fn(i)
		results[i] = v
		g := groupOf(i)
		mu.Lock()
		if err != nil {
			groupOK[g] = false
		}
		remaining[g]--
		done := remaining[g] == 0 && groupOK[g]
		mu.Unlock()
		if done {
			merge.Put(g, results[starts[g]:starts[g]+sizes[g]])
		}
		return err
	})
	if runErr != nil {
		return runErr
	}
	return merge.Err()
}
