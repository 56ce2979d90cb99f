package telemetry

import (
	"math"
	"testing"

	"mpicontend/internal/machine"
)

// lockStream drives one lock of a fold-only recorder the way the
// runtime's critical-section wrapper does: LockRequest before the
// acquisition, LockGrant after it and LockHold at the release. Each call
// advances the virtual clock, so a request always predates the next grant.
type lockStream struct {
	r  *Recorder
	cs int
	at int64
}

func newLockStream() *lockStream {
	r := New()
	return &lockStream{r: r, cs: r.RegisterLock("cs")}
}

// request opens thread's request for the lock.
func (s *lockStream) request(thread int, p machine.Place) {
	s.at += 10
	s.r.LockRequest(s.cs, thread, p, s.at)
}

// grant hands the lock to thread, which has requested it, with dangling
// requests outstanding, and releases it one step later.
func (s *lockStream) grant(thread int, p machine.Place, dangling int) {
	s.at += 10
	s.r.LockGrant(s.cs, thread, ClassHigh, p, s.at, s.at, dangling)
	s.r.LockHold(s.cs, thread, ClassHigh, false, p.Socket, p.Core, s.at, s.at+10)
	s.at += 10
}

// acquire is request then grant.
func (s *lockStream) acquire(thread int, p machine.Place, dangling int) {
	s.request(thread, p)
	s.grant(thread, p, dangling)
}

func (s *lockStream) arbitration(t *testing.T) Arbitration {
	t.Helper()
	a, ok := s.r.Arbitration("cs")
	if !ok {
		t.Fatal("lock cs not found")
	}
	return a
}

func TestFairnessAllSameThread(t *testing.T) {
	s := newLockStream()
	s.request(1, place(0, 1)) // waits throughout
	s.request(2, place(1, 0)) // waits throughout
	for i := 0; i < 10; i++ {
		s.acquire(0, place(0, 0), 0)
	}
	a := s.arbitration(t)
	if a.Samples != 9 { // the first grant has no previous owner
		t.Fatalf("samples = %d, want 9", a.Samples)
	}
	// Pc = 1 against a fair 1/3 over three candidates.
	if math.Abs(a.BiasFactorCore-3.0) > 1e-9 {
		t.Fatalf("BiasFactorCore = %v, want 3", a.BiasFactorCore)
	}
	// Ps = 1 against a fair 2/3: two of the three candidates share
	// socket 0 with the previous owner.
	if math.Abs(a.BiasFactorSocket-1.5) > 1e-9 {
		t.Fatalf("BiasFactorSocket = %v, want 1.5", a.BiasFactorSocket)
	}
}

func TestFairnessRoundRobinIsUnbiased(t *testing.T) {
	s := newLockStream()
	// 4 threads, 2 per socket, perfect round-robin with all others waiting.
	places := []machine.Place{place(0, 0), place(0, 1), place(1, 0), place(1, 1)}
	for id, p := range places {
		s.request(id, p)
	}
	for i := 0; i < 400; i++ {
		id := i % 4
		s.grant(id, places[id], 0)
		s.request(id, places[id])
	}
	a := s.arbitration(t)
	if a.Samples != 399 {
		t.Fatalf("samples = %d, want 399", a.Samples)
	}
	// The owner never repeats: Pc = 0, so the core bias is 0.
	if a.BiasFactorCore != 0 {
		t.Fatalf("round robin BiasFactorCore = %v, want 0", a.BiasFactorCore)
	}
	// Successive owners 0→1 and 2→3 share a socket, 1→2 and 3→0 do not:
	// Ps = 1/2, and the fair Ps is 1/2 too.
	if math.Abs(a.BiasFactorSocket-1.0) > 0.01 {
		t.Fatalf("BiasFactorSocket = %v, want ~1", a.BiasFactorSocket)
	}
}

func TestFairnessSkipsUncontended(t *testing.T) {
	s := newLockStream()
	for i := 0; i < 3; i++ {
		s.acquire(0, place(0, 0), 0) // no waiters: skipped
	}
	if a := s.arbitration(t); a.Samples != 0 {
		t.Fatalf("uncontended grants were counted: %d", a.Samples)
	}
	// The previous owner still advances with every hold: a contended
	// grant to thread 1 right after thread 0 is not a same-core repeat.
	s.request(2, place(1, 0))
	s.acquire(1, place(0, 1), 0)
	if a := s.arbitration(t); a.Samples != 1 || a.BiasFactorCore != 0 {
		t.Fatalf("samples=%d BiasFactorCore=%v", a.Samples, a.BiasFactorCore)
	}
}

func TestFairnessEmpty(t *testing.T) {
	s := newLockStream()
	if a := s.arbitration(t); a != (Arbitration{}) {
		t.Fatalf("empty lock reads %+v, want zeros", a)
	}
	if _, ok := s.r.Arbitration("missing"); ok {
		t.Fatal("unknown lock found")
	}
}

func TestDanglingSampledAtGrants(t *testing.T) {
	s := newLockStream()
	for _, v := range []int{0, 5, 10, 5} {
		s.acquire(0, place(0, 0), v)
	}
	a := s.arbitration(t)
	if a.DanglingAvg != 5 {
		t.Fatalf("avg = %v, want 5", a.DanglingAvg)
	}
	if a.DanglingMax != 10 {
		t.Fatalf("max = %v, want 10", a.DanglingMax)
	}
	if a.Grants != 4 {
		t.Fatalf("grants = %d, want 4", a.Grants)
	}
}

func TestDanglingEmpty(t *testing.T) {
	s := newLockStream()
	s.request(0, place(0, 0)) // requested, never granted: no sample
	if a := s.arbitration(t); a.Grants != 0 || a.DanglingAvg != 0 || a.DanglingMax != 0 {
		t.Fatalf("ungranted lock reads %+v, want zero dangling", a)
	}
}
