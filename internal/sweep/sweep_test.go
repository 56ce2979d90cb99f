package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mpicontend/internal/sim"
)

// TestMapOrder checks that results land in index order for every worker
// count, including counts above the job count and the serial path.
func TestMapOrder(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 3, 4, 8, 64, 200} {
		got, err := Map(workers, n, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapRunsEachJobOnce counts executions with many workers racing on
// the shared job index under uneven job costs.
func TestMapRunsEachJobOnce(t *testing.T) {
	const n = 500
	var counts [n]int64
	_, err := Map(8, n, func(i int) (struct{}, error) {
		atomic.AddInt64(&counts[i], 1)
		// Make early indices expensive so later ranges get stolen.
		if i%7 == 0 {
			x := 0
			for k := 0; k < 50_000; k++ {
				x += k
			}
			_ = x
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if counts[i] != 1 {
			t.Fatalf("job %d ran %d times", i, counts[i])
		}
	}
}

// TestMapZeroAndDefaults covers n=0 and workers<=0 (DefaultWorkers).
func TestMapZeroAndDefaults(t *testing.T) {
	got, err := Map(0, 0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(got) != 0 {
		t.Fatalf("n=0: got %v, %v", got, err)
	}
	if err := Run(-1, 5, func(i int) error { return nil }); err != nil {
		t.Fatalf("workers=-1: %v", err)
	}
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
}

// TestMapErrorIsLowestIndex checks the deterministic error contract: the
// reported error is the lowest failing index no matter the scheduling,
// every job below it runs, and no job above a known failure is claimed.
// One worker claims in order, so it runs exactly jobs 0..13.
func TestMapErrorIsLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		ran := map[int]bool{}
		_, err := Map(workers, 50, func(i int) (int, error) {
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			if i == 13 || i == 37 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "job 13") {
			t.Fatalf("workers=%d: err = %v, want job 13", workers, err)
		}
		for i := 0; i <= 13; i++ {
			if !ran[i] {
				t.Fatalf("workers=%d: job %d below the failure did not run", workers, i)
			}
		}
		if workers == 1 && len(ran) != 14 {
			t.Fatalf("workers=1: ran %d jobs, want exactly jobs 0..13", len(ran))
		}
	}
}

// TestMapSimthreadPanicIsJobError checks that a point whose simthread
// panics fails as that job's error instead of crashing the sweep, and
// that the results of the points below it are intact.
func TestMapSimthreadPanicIsJobError(t *testing.T) {
	job := func(i int) (sim.Time, error) {
		e := sim.NewEngine(uint64(i + 1))
		e.Spawn(fmt.Sprintf("point%d", i), func(th *sim.Thread) {
			th.Sleep(sim.Time(10 + i))
			if i == 2 {
				panic("boom")
			}
		})
		if err := e.Run(); err != nil {
			return 0, err
		}
		return e.Now(), nil
	}
	for _, workers := range []int{1, 2} {
		res, err := Map(workers, 4, job)
		var pe *sim.PanicError
		if err == nil || !strings.HasPrefix(err.Error(), "sweep: job 2: ") || !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want job 2's PanicError", workers, err)
		}
		if pe.Thread != "point2" || pe.Time != 12 {
			t.Fatalf("workers=%d: panic in %q at %d, want point2 at 12", workers, pe.Thread, pe.Time)
		}
		// Jobs below the failure keep their results; job 3, above it, is
		// skipped unless a second worker claimed it before job 2 failed.
		if want := []sim.Time{10, 11, 0}; fmt.Sprint(res[:3]) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: results %v, want %v first", workers, res, want)
		}
		if workers == 1 && res[3] != 0 {
			t.Fatalf("workers=1: job 3 above the failure ran (result %v)", res[3])
		}
	}
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func reversed(n int) []int {
	out := make([]int, 0, n)
	for i := n - 1; i >= 0; i-- {
		out = append(out, i)
	}
	return out
}

func evensThenOdds(n int) []int {
	var out []int
	for i := 0; i < n; i += 2 {
		out = append(out, i)
	}
	for i := 1; i < n; i += 2 {
		out = append(out, i)
	}
	return out
}

// TestMapGroupsOrder runs uneven groups across worker counts and checks
// group payloads and strict emission order.
func TestMapGroupsOrder(t *testing.T) {
	sizes := []int{3, 0, 5, 1, 0, 4}
	for _, workers := range []int{1, 2, 4, 8} {
		var order []int
		err := MapGroups(workers, sizes, func(i int) (int, error) { return i + 100, nil },
			func(g int, results []int) error {
				order = append(order, g)
				if len(results) != sizes[g] {
					t.Fatalf("workers=%d group %d: %d results, want %d",
						workers, g, len(results), sizes[g])
				}
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(order) != len(sizes) {
			t.Fatalf("workers=%d: emitted %d groups, want %d", workers, len(order), len(sizes))
		}
		for g, v := range order {
			if v != g {
				t.Fatalf("workers=%d: emission %d was group %d", workers, g, v)
			}
		}
	}
}

// TestMapGroupsValues checks each group receives exactly its own slice of
// the flat result space.
func TestMapGroupsValues(t *testing.T) {
	sizes := []int{2, 3}
	var all [][]int
	err := MapGroups(4, sizes, func(i int) (int, error) { return i * 10, nil },
		func(g int, results []int) error {
			cp := append([]int(nil), results...)
			all = append(all, cp)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 10}, {20, 30, 40}}
	for g := range want {
		for k := range want[g] {
			if all[g][k] != want[g][k] {
				t.Fatalf("group %d = %v, want %v", g, all[g], want[g])
			}
		}
	}
}

// TestMapGroupsFailurePrefix checks the serial-equivalent failure
// contract: a failing group withholds itself and everything after it,
// while the prefix still emits.
func TestMapGroupsFailurePrefix(t *testing.T) {
	sizes := []int{2, 2, 2, 2}
	for _, workers := range []int{1, 4} {
		var order []int
		err := MapGroups(workers, sizes, func(i int) (int, error) {
			if i == 5 { // group 2's second job
				return 0, errors.New("boom")
			}
			return i, nil
		}, func(g int, results []int) error {
			order = append(order, g)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "job 5") {
			t.Fatalf("workers=%d: err = %v, want job 5", workers, err)
		}
		if len(order) != 2 || order[0] != 0 || order[1] != 1 {
			t.Fatalf("workers=%d: emitted groups %v, want [0 1]", workers, order)
		}
	}
}

// TestMapGroupsShuffledCompletion runs every job on its own worker and
// lets the jobs finish in adversarial orders. Whatever the order, groups
// emit strictly in order, each with its own results, only once every job
// of the group and of every earlier group is done, and never while
// another emit is running.
func TestMapGroupsShuffledCompletion(t *testing.T) {
	sizes := []int{2, 0, 1, 3, 0, 1, 4, 2, 1, 0}
	starts := []int{0}
	for _, sz := range sizes {
		starts = append(starts, starts[len(starts)-1]+sz)
	}
	n := starts[len(sizes)]
	for oi, order := range [][]int{reversed(n), evensThenOdds(n), identity(n)} {
		gates := make([]chan struct{}, n)
		for i := range gates {
			gates[i] = make(chan struct{})
		}
		done := make([]atomic.Bool, n)
		finished := make(chan struct{})
		go func() {
			for _, i := range order {
				close(gates[i])
				<-finished
			}
		}()
		var emitting atomic.Bool
		emitted := 0
		err := MapGroups(n, sizes, func(i int) (int, error) {
			<-gates[i]
			done[i].Store(true)
			finished <- struct{}{}
			return i * 3, nil
		}, func(g int, results []int) error {
			if !emitting.CompareAndSwap(false, true) {
				t.Errorf("order %d: emit of group %d overlaps another", oi, g)
			}
			defer emitting.Store(false)
			if g != emitted {
				t.Errorf("order %d: emission %d was group %d", oi, emitted, g)
			}
			emitted++
			for j := 0; j < starts[g+1]; j++ {
				if !done[j].Load() {
					t.Errorf("order %d: group %d emitted before job %d finished", oi, g, j)
				}
			}
			for k, v := range results {
				if want := (starts[g] + k) * 3; v != want {
					t.Errorf("order %d: group %d result %d = %d, want %d", oi, g, k, v, want)
				}
			}
			return nil
		})
		if err != nil || emitted != len(sizes) {
			t.Fatalf("order %d: emitted %d of %d groups, err %v", oi, emitted, len(sizes), err)
		}
	}
}

// TestMapGroupsEmitError checks the sticky emit error: the failing emit
// is the last one, whatever finishes after it, and its error is returned.
func TestMapGroupsEmitError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var order []int
		err := MapGroups(workers, []int{1, 1, 1, 1}, func(i int) (int, error) { return i, nil },
			func(g int, results []int) error {
				order = append(order, g)
				if g == 1 {
					return errors.New("sink full")
				}
				return nil
			})
		if err == nil || !strings.Contains(err.Error(), "emit 1") || !strings.Contains(err.Error(), "sink full") {
			t.Fatalf("workers=%d: err = %v, want emit 1's sink full", workers, err)
		}
		if len(order) != 2 || order[0] != 0 || order[1] != 1 {
			t.Fatalf("workers=%d: emitted groups %v, want [0 1]", workers, order)
		}
	}
}

// TestMapGroupsConcurrent has eight workers finish 300 one-job groups in
// whatever order the scheduler picks; under the race detector the
// emissions must still walk 0..n-1 once each, never overlapping.
func TestMapGroupsConcurrent(t *testing.T) {
	const n = 300
	sizes := make([]int, n)
	for g := range sizes {
		sizes[g] = 1
	}
	var emitting atomic.Bool
	var got []int
	err := MapGroups(8, sizes, func(i int) (int, error) {
		if i%7 == 0 {
			runtime.Gosched()
		}
		return i, nil
	}, func(g int, results []int) error {
		if !emitting.CompareAndSwap(false, true) {
			t.Errorf("emit of group %d overlaps another", g)
		}
		defer emitting.Store(false)
		if len(results) != 1 || results[0] != g {
			t.Errorf("group %d results = %v", g, results)
		}
		got = append(got, g)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("emitted %d of %d groups", len(got), n)
	}
	for i, g := range got {
		if g != i {
			t.Fatalf("emission %d was group %d", i, g)
		}
	}
}

// TestMapGroupsNegativeSize checks that a negative group size is refused
// before any job runs or any group emits.
func TestMapGroupsNegativeSize(t *testing.T) {
	ran, emitted := 0, 0
	err := MapGroups(2, []int{1, -1, 1}, func(i int) (int, error) { ran++; return i, nil },
		func(g int, results []int) error { emitted++; return nil })
	if err == nil || !strings.Contains(err.Error(), "group 1 has negative size -1") {
		t.Fatalf("err = %v, want group 1's negative size", err)
	}
	if ran != 0 || emitted != 0 {
		t.Fatalf("ran %d jobs and emitted %d groups, want none", ran, emitted)
	}
}
