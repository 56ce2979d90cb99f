package simlock

import (
	"runtime"
	"testing"

	"mpicontend/internal/machine"
	"mpicontend/internal/sim"
)

// contention drives simthreads through acquire/hold/release cycles with
// seeded random hold and gap times, so arrivals land both while the lock
// is held and inside the window between a release and its grant.
type contention struct {
	eng  *sim.Engine
	lock Lock
	// mutex is lock itself when it is a bare FutexMutex; it enables the
	// path counts below.
	mutex *FutexMutex

	grants int
	steals int // acquisitions that displaced an elected winner
	wakes  int // releases that woke a futex sleeper
	// onGrant, when set, runs in the new holder right after each grant.
	onGrant func(grants int)
}

func newContention(kind Kind, seed uint64) *contention {
	eng := sim.NewEngine(seed)
	h := &contention{eng: eng, lock: New(kind, &Config{Eng: eng, Cost: machine.Default()})}
	if kind == KindMutex {
		h.mutex = h.lock.(*FutexMutex)
	}
	return h
}

// run launches nthreads (odd ones entering at Low class, which only the
// priority compositions distinguish), each acquiring iters times, and
// fails the test on a mutual-exclusion violation or a run error — the
// latter includes the mutex's "woke a thread it did not grant" panic.
func (h *contention) run(t *testing.T, nthreads, iters int) {
	t.Helper()
	topo := machine.Nehalem2x4(1)
	inCS := false
	for i := 0; i < nthreads; i++ {
		i := i
		place := topo.Bind(machine.Compact, 0, 0, 8, i)
		h.eng.Spawn("worker", func(th *sim.Thread) {
			c := &Ctx{T: th, Place: place}
			cl := High
			if i%2 == 1 {
				cl = Low
			}
			rng := h.eng.Rand()
			for k := 0; k < iters; k++ {
				// A thread granted before the elected winner's grant
				// time stole the lock from it (nothing else can free a
				// lock whose grant is still pending).
				stealBefore := sim.Time(-1)
				if m := h.mutex; m != nil && !m.locked && m.grantTo != nil {
					stealBefore = m.grantAt
				}
				h.lock.Acquire(c, cl)
				if th.Now() < stealBefore {
					h.steals++
				}
				if inCS {
					t.Errorf("mutual exclusion violated by thread %d", i)
				}
				inCS = true
				h.grants++
				if h.onGrant != nil {
					h.onGrant(h.grants)
				}
				th.Sleep(100 + rng.Int63n(400))
				inCS = false
				if m := h.mutex; m != nil && m.sleepers.n > 0 {
					h.wakes++
				}
				h.lock.Release(c, cl)
				th.Sleep(rng.Int63n(3000))
			}
		})
	}
	if err := h.eng.Run(); err != nil {
		t.Fatalf("%s: %v", h.lock.Name(), err)
	}
}

// TestMutexAllocsPerGrant is the allocation gate of the futex mutex: once
// its waiter pool and the engine's event pool have warmed up, an
// acquire/grant/release cycle — steal, spinner-to-sleeper and FUTEX_WAKE
// paths included — allocates nothing. The bound leaves room for stray
// runtime allocations only.
func TestMutexAllocsPerGrant(t *testing.T) {
	const threads, iters, warm = 8, 2000, 1000
	h := newContention(KindMutex, 11)
	var ms runtime.MemStats
	var mallocs0 uint64
	h.onGrant = func(g int) {
		if g == warm {
			runtime.ReadMemStats(&ms)
			mallocs0 = ms.Mallocs
		}
	}
	h.run(t, threads, iters)
	runtime.ReadMemStats(&ms)
	if h.steals == 0 || h.wakes == 0 {
		t.Fatalf("workload missed a path: %d steals, %d futex wakes", h.steals, h.wakes)
	}
	measured := h.grants - warm
	perGrant := float64(ms.Mallocs-mallocs0) / float64(measured)
	t.Logf("%d grants (%d steals, %d futex wakes): %.4f allocs/grant after warm-up",
		h.grants, h.steals, h.wakes, perGrant)
	if perGrant > 0.1 {
		t.Fatalf("%.4f allocs per mutex grant, want <= 0.1", perGrant)
	}
}

// TestMutexWaiterReuseUnderStealing runs the pooled-waiter locks over many
// seeds: a waiter recycled while a stale timer still named it would grant
// or wake the wrong thread, which the mutex turns into a panic and the
// harness into a mutual-exclusion failure.
func TestMutexWaiterReuseUnderStealing(t *testing.T) {
	for _, k := range []Kind{KindMutex, KindPrioMutex, KindTAS} {
		t.Run(k.String(), func(t *testing.T) {
			steals := 0
			for seed := uint64(1); seed <= 40; seed++ {
				h := newContention(k, seed)
				h.run(t, 8, 60)
				if h.grants != 8*60 {
					t.Fatalf("seed %d: %d grants, want %d", seed, h.grants, 8*60)
				}
				steals += h.steals
			}
			if k == KindMutex && steals == 0 {
				t.Fatal("no seed exercised the steal path")
			}
		})
	}
}
