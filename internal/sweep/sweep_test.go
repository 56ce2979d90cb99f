package sweep

import (
	"errors"
	"fmt"
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

// TestMapErrorIsLowestIndex checks the deterministic error contract: all
// jobs run, and the reported error is the lowest failing index no matter
// the scheduling.
func TestMapErrorIsLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran int64
		_, err := Map(workers, 50, func(i int) (int, error) {
			atomic.AddInt64(&ran, 1)
			if i == 13 || i == 37 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "job 13") {
			t.Fatalf("workers=%d: err = %v, want job 13", workers, err)
		}
		if ran != 50 {
			t.Fatalf("workers=%d: ran %d jobs, want all 50", workers, ran)
		}
	}
}

// TestMapSimthreadPanicIsJobError checks that a point whose simthread
// panics fails as that job's error instead of crashing the sweep, and
// that the other points' results are intact.
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
		if want := []sim.Time{10, 11, 0, 13}; fmt.Sprint(res) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: results %v, want %v", workers, res, want)
		}
	}
}

// TestOrderedMergeShuffled feeds completions in adversarial orders and
// asserts emissions always come out 0,1,2,...
func TestOrderedMergeShuffled(t *testing.T) {
	const n = 64
	orders := [][]int{
		reversed(n),      // strictly worst case: everything buffers
		evensThenOdds(n), // interleaved gaps
		identity(n),      // already ordered
	}
	for oi, order := range orders {
		var got []int
		m := NewOrderedMerge[int](func(i, v int) error {
			if v != i*3 {
				t.Fatalf("order %d: emit(%d) = %d, want %d", oi, i, v, i*3)
			}
			got = append(got, i)
			return nil
		})
		for _, i := range order {
			m.Put(i, i*3)
		}
		if len(got) != n {
			t.Fatalf("order %d: emitted %d of %d", oi, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("order %d: emission %d was index %d", oi, i, v)
			}
		}
		if m.Err() != nil {
			t.Fatalf("order %d: unexpected err %v", oi, m.Err())
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

// TestOrderedMergeGap checks that a missing index parks the merge: only
// the contiguous prefix is emitted.
func TestOrderedMergeGap(t *testing.T) {
	var got []int
	m := NewOrderedMerge[int](func(i, v int) error { got = append(got, i); return nil })
	for _, i := range []int{0, 1, 3, 4, 5} { // 2 never arrives
		m.Put(i, i)
	}
	if want := []int{0, 1}; len(got) != len(want) || got[0] != 0 || got[1] != 1 {
		t.Fatalf("emitted %v, want %v", got, want)
	}
	if m.Emitted() != 2 {
		t.Fatalf("Emitted() = %d, want 2", m.Emitted())
	}
}

// TestOrderedMergeEmitError checks the sticky-error contract.
func TestOrderedMergeEmitError(t *testing.T) {
	var emitted int
	m := NewOrderedMerge[int](func(i, v int) error {
		emitted++
		if i == 1 {
			return errors.New("sink full")
		}
		return nil
	})
	for _, i := range []int{2, 1, 0, 3} {
		m.Put(i, i)
	}
	if emitted != 2 { // 0 ok, 1 fails, 2 and 3 withheld
		t.Fatalf("emitted %d times, want 2", emitted)
	}
	if err := m.Err(); err == nil || !strings.Contains(err.Error(), "emit 1") {
		t.Fatalf("Err() = %v", err)
	}
}

// TestOrderedMergeConcurrent hammers Put from many goroutines under the
// race detector; emissions must still be a permutation-free 0..n-1 walk.
func TestOrderedMergeConcurrent(t *testing.T) {
	const n = 300
	var got []int
	m := NewOrderedMerge[int](func(i, v int) error { got = append(got, i); return nil })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				m.Put(i, i)
			}
		}(w)
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("emitted %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("emission %d was index %d", i, v)
		}
	}
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
