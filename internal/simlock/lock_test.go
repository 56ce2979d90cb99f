package simlock

import (
	"strings"
	"testing"
	"testing/quick"

	"mpicontend/internal/machine"
	"mpicontend/internal/sim"
	"mpicontend/internal/telemetry"
)

// harness runs nthreads simthreads that repeatedly enter a lock's critical
// section, verifying mutual exclusion, and returns per-thread acquisition
// counts and the grant trace. Grants are observed the way the MPI runtime
// observes them: a telemetry.WaitSet timed around each Acquire.
type harness struct {
	eng     *sim.Engine
	lock    Lock
	topo    machine.Topology
	waiting telemetry.WaitSet
	grants  []telemetry.Grant
	counts  []int
}

func newHarness(t *testing.T, kind Kind, seed uint64) *harness {
	t.Helper()
	h := &harness{
		eng:  sim.NewEngine(seed),
		topo: machine.Nehalem2x4(1),
	}
	h.lock = New(kind, &Config{Eng: h.eng, Cost: machine.Default()})
	return h
}

// acquire enters the lock's critical section, timing the request and the
// grant on the harness's waiting set, and records the grant with a private
// copy of its waiter placements.
func (h *harness) acquire(c *Ctx, cl Class) {
	h.waiting.Request(c.T.ID(), c.Place, c.T.Now())
	h.lock.Acquire(c, cl)
	g := h.waiting.Grant(c.T.ID(), c.Place, c.T.Now())
	g.Waiters = append([]machine.Place(nil), g.Waiters...)
	h.grants = append(h.grants, g)
}

// run launches nthreads bound per binding, each acquiring iters times with
// the given hold/gap times and class chooser.
func (h *harness) run(t *testing.T, nthreads, iters int, hold, gap int64,
	class func(thread, iter int) Class) {
	t.Helper()
	h.counts = make([]int, nthreads)
	inCS := false
	for i := 0; i < nthreads; i++ {
		i := i
		place := h.topo.Bind(machine.Compact, 0, 0, 8, i)
		h.eng.Spawn("worker", func(th *sim.Thread) {
			c := &Ctx{T: th, Place: place}
			for k := 0; k < iters; k++ {
				cl := High
				if class != nil {
					cl = class(i, k)
				}
				h.acquire(c, cl)
				if inCS {
					t.Errorf("mutual exclusion violated by thread %d", i)
				}
				inCS = true
				th.Sleep(hold)
				inCS = false
				h.lock.Release(c, cl)
				h.counts[i]++
				th.Sleep(gap)
			}
		})
	}
	if err := h.eng.Run(); err != nil {
		t.Fatalf("%s: %v", h.lock.Name(), err)
	}
}

func TestMutualExclusionAllKinds(t *testing.T) {
	kinds := []Kind{KindMutex, KindTicket, KindPriority, KindTAS, KindMCS, KindPrioMutex, KindSocketPriority, KindCLH}
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) {
			h := newHarness(t, k, 42)
			h.run(t, 8, 50, 100, 30, nil)
			total := 0
			for _, c := range h.counts {
				total += c
			}
			if total != 8*50 {
				t.Fatalf("completed %d acquisitions, want %d", total, 8*50)
			}
		})
	}
}

func TestAllThreadsComplete(t *testing.T) {
	// Starvation must be bounded in a finite run for every kind except
	// the deliberately starvation-prone socket-priority ablation.
	for _, k := range []Kind{KindMutex, KindTicket, KindPriority, KindMCS, KindCLH} {
		t.Run(k.String(), func(t *testing.T) {
			h := newHarness(t, k, 7)
			h.run(t, 8, 20, 200, 10, nil)
			for i, c := range h.counts {
				if c != 20 {
					t.Fatalf("thread %d finished %d/20", i, c)
				}
			}
		})
	}
}

func TestTicketFIFO(t *testing.T) {
	// With a long hold time and short gaps, all other threads queue while
	// one holds: grants must then rotate round-robin (FIFO), i.e. the
	// same thread never reacquires while others wait.
	h := newHarness(t, KindTicket, 1)
	h.run(t, 8, 30, 500, 1, nil)
	for i := 1; i < len(h.grants); i++ {
		g := h.grants[i]
		if g.ThreadID == h.grants[i-1].ThreadID && len(h.grants[i-1].Waiters) > 0 {
			t.Fatalf("grant %d: thread %d reacquired while %d waiters queued",
				i, g.ThreadID, len(h.grants[i-1].Waiters))
		}
	}
}

func TestTicketFairSpread(t *testing.T) {
	h := newHarness(t, KindTicket, 3)
	h.run(t, 8, 40, 300, 20, nil)
	min, max := h.counts[0], h.counts[0]
	for _, c := range h.counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Fatalf("ticket counts uneven: %v", h.counts)
	}
}

// TestMutexCoreBias verifies the paper's central observation (§4.2-4.3):
// under the futex mutex, consecutive acquisitions by the same thread (and
// same socket) are far more frequent than a fair arbitration would allow.
func TestMutexCoreBias(t *testing.T) {
	h := newHarness(t, KindMutex, 11)
	// Short release-to-reacquire gap mimics the progress-loop yield.
	h.run(t, 8, 200, 150, 25, nil)
	sameThread, sameSocket, contended := 0, 0, 0
	for i := 1; i < len(h.grants); i++ {
		prev, g := h.grants[i-1], h.grants[i]
		if len(prev.Waiters) == 0 {
			continue // uncontended hand-offs say nothing about bias
		}
		contended++
		if g.ThreadID == prev.ThreadID {
			sameThread++
		}
		if g.Place.SameSocket(prev.Place) {
			sameSocket++
		}
	}
	if contended < 100 {
		t.Fatalf("too few contended grants to judge bias: %d", contended)
	}
	pc := float64(sameThread) / float64(contended)
	ps := float64(sameSocket) / float64(contended)
	// Fair would give pc ~= 1/8 and ps ~= 0.5 with 8 threads over 2
	// sockets; the mutex must be visibly above both.
	if pc < 0.25 {
		t.Errorf("core-level bias too weak: Pc = %.3f (fair ~ 0.125)", pc)
	}
	if ps < 0.6 {
		t.Errorf("socket-level bias too weak: Ps = %.3f (fair ~ 0.5)", ps)
	}
}

// TestTicketNoBias verifies FCFS kills the same-thread reacquisition bias
// under the identical workload.
func TestTicketNoBias(t *testing.T) {
	h := newHarness(t, KindTicket, 11)
	h.run(t, 8, 200, 150, 25, nil)
	sameThread, contended := 0, 0
	for i := 1; i < len(h.grants); i++ {
		prev, g := h.grants[i-1], h.grants[i]
		if len(prev.Waiters) == 0 {
			continue
		}
		contended++
		if g.ThreadID == prev.ThreadID {
			sameThread++
		}
	}
	if contended == 0 {
		t.Fatal("no contended grants")
	}
	pc := float64(sameThread) / float64(contended)
	if pc > 0.2 {
		t.Errorf("ticket lock shows core bias: Pc = %.3f", pc)
	}
}

// TestMutexStarvation shows the unfair arbitration lets some thread fall
// far behind while the lock is monopolized, measured mid-run as the spread
// of acquisition counts after a fixed number of grants.
func TestMutexStarvationSpread(t *testing.T) {
	spread := func(kind Kind) int {
		h := newHarness(t, kind, 5)
		h.run(t, 8, 100, 150, 25, nil)
		limit := 300
		perThread := map[int]int{}
		for i, g := range h.grants {
			if i >= limit {
				break
			}
			perThread[g.ThreadID]++
		}
		min, max := 1<<30, 0
		for i := 0; i < 8; i++ {
			c := perThread[i]
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max - min
	}
	if m, tk := spread(KindMutex), spread(KindTicket); m <= tk {
		t.Errorf("mutex spread %d should exceed ticket spread %d", m, tk)
	}
}

// TestPriorityHighBeatsLow: while low-priority threads churn the lock, a
// high-priority acquire must overtake queued low-priority requests.
func TestPriorityHighBeatsLow(t *testing.T) {
	eng := sim.NewEngine(9)
	topo := machine.Nehalem2x4(1)
	var waiting telemetry.WaitSet
	var grants []telemetry.Grant
	lock := NewPriorityLock(&Config{Eng: eng, Cost: machine.Default()})
	// Three low-priority pollers hammer the lock.
	for i := 0; i < 3; i++ {
		place := topo.Bind(machine.Compact, 0, 0, 8, i)
		eng.Spawn("low", func(th *sim.Thread) {
			c := &Ctx{T: th, Place: place}
			for k := 0; k < 300; k++ {
				waiting.Request(th.ID(), place, th.Now())
				lock.Acquire(c, Low)
				grants = append(grants, waiting.Grant(th.ID(), place, th.Now()))
				th.Sleep(120)
				lock.Release(c, Low)
				th.Sleep(25)
			}
		})
	}
	// One high-priority thread arrives late and must get in quickly.
	var waited sim.Time
	hiPlace := topo.Bind(machine.Compact, 0, 0, 8, 3)
	eng.Spawn("high", func(th *sim.Thread) {
		c := &Ctx{T: th, Place: hiPlace}
		for k := 0; k < 50; k++ {
			th.Sleep(500)
			start := th.Now()
			waiting.Request(th.ID(), hiPlace, start)
			lock.Acquire(c, High)
			grants = append(grants, waiting.Grant(th.ID(), hiPlace, th.Now()))
			waited += th.Now() - start
			th.Sleep(50)
			lock.Release(c, High)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	avg := waited / 50
	// A high acquire should wait roughly one low CS (~145ns), never a
	// full queue of them.
	if avg > 400 {
		t.Errorf("high-priority thread waited %dns on average", avg)
	}
}

// TestPriorityLowNotStarvedForever: after high traffic stops, low threads
// must complete.
func TestPriorityLowEventuallyRuns(t *testing.T) {
	h := newHarness(t, KindPriority, 13)
	h.run(t, 8, 50, 100, 30, func(thread, iter int) Class {
		if thread < 4 {
			return High
		}
		return Low
	})
	for i, c := range h.counts {
		if c != 50 {
			t.Fatalf("thread %d finished %d/50", i, c)
		}
	}
}

// TestPriorityFIFOWithinClass: among same-class threads arbitration is
// FCFS (no same-thread reacquisition while peers wait).
func TestPriorityFIFOWithinClass(t *testing.T) {
	h := newHarness(t, KindPriority, 17)
	h.run(t, 8, 30, 500, 1, nil) // all high
	for i := 1; i < len(h.grants); i++ {
		g, prev := h.grants[i], h.grants[i-1]
		if g.ThreadID == prev.ThreadID && len(prev.Waiters) > 0 {
			t.Fatalf("priority lock let thread %d reacquire past %d waiters",
				g.ThreadID, len(prev.Waiters))
		}
	}
}

// TestSocketPriorityStarvesRemoteSocket demonstrates the §7 failure mode.
func TestSocketPriorityStarvation(t *testing.T) {
	h := newHarness(t, KindSocketPriority, 21)
	h.run(t, 8, 100, 300, 1, nil)
	// Inspect the first 400 grants: socket 0 threads (0-3) should have
	// hoarded the lock relative to socket 1 under saturation.
	s0, s1 := 0, 0
	for i, g := range h.grants {
		if i >= 400 {
			break
		}
		if g.Place.Socket == 0 {
			s0++
		} else {
			s1++
		}
	}
	if s0 <= s1*2 {
		t.Errorf("expected socket-0 hoarding, got s0=%d s1=%d", s0, s1)
	}
}

// TestGrantWaiterSnapshots: waiters never include the new holder.
func TestGrantWaiterSnapshots(t *testing.T) {
	for _, k := range []Kind{KindMutex, KindTicket, KindPriority, KindMCS, KindCLH} {
		h := newHarness(t, k, 23)
		h.run(t, 4, 30, 200, 10, nil)
		for _, g := range h.grants {
			if len(g.Waiters) > 3 {
				t.Fatalf("%s: %d waiters with 4 threads", k, len(g.Waiters))
			}
		}
	}
}

// TestLockDeterminism: identical seeds give identical grant traces.
func TestLockDeterminism(t *testing.T) {
	trace := func() []int {
		h := newHarness(t, KindMutex, 31)
		h.run(t, 8, 50, 120, 20, nil)
		ids := make([]int, len(h.grants))
		for i, g := range h.grants {
			ids[i] = g.ThreadID
		}
		return ids
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

// TestRandomizedSchedulesProperty: for random thread counts, hold times and
// seeds, every kind preserves mutual exclusion and completes.
func TestRandomizedSchedulesProperty(t *testing.T) {
	kinds := []Kind{KindMutex, KindTicket, KindPriority, KindMCS, KindTAS}
	f := func(seed uint64, nRaw, holdRaw, gapRaw uint8) bool {
		n := 1 + int(nRaw)%8
		hold := 10 + int64(holdRaw)%500
		gap := 1 + int64(gapRaw)%200
		for _, k := range kinds {
			h := newHarness(t, k, seed)
			h.run(t, n, 10, hold, gap, nil)
			total := 0
			for _, c := range h.counts {
				total += c
			}
			if total != n*10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindMutex: "Mutex", KindTicket: "Ticket", KindPriority: "Priority",
		KindTAS: "TAS", KindMCS: "MCS", KindPrioMutex: "PrioMutex",
		KindSocketPriority: "SocketPriority", KindCLH: "CLH",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if High.String() != "high" || Low.String() != "low" {
		t.Fatal("class names changed")
	}
}

// TestTicketBoundedWait checks the ticket lock's theoretical guarantee:
// with N threads and hold time H, no acquisition waits longer than about
// N*(H + handoff). The mutex offers no such bound — its maximum wait under
// the same load is far larger (futex round trips during starvation).
func TestTicketBoundedWait(t *testing.T) {
	maxWait := func(kind Kind) sim.Time {
		eng := sim.NewEngine(77)
		topo := machine.Nehalem2x4(1)
		cfg := &Config{Eng: eng, Cost: machine.Default()}
		lock := New(kind, cfg)
		var worst sim.Time
		const hold, gap, iters, threads = 150, 25, 150, 8
		for i := 0; i < threads; i++ {
			place := topo.Bind(machine.Compact, 0, 0, 8, i)
			eng.Spawn("w", func(th *sim.Thread) {
				c := &Ctx{T: th, Place: place}
				for k := 0; k < iters; k++ {
					start := th.Now()
					lock.Acquire(c, High)
					if w := th.Now() - start; w > worst {
						worst = w
					}
					th.Sleep(hold)
					lock.Release(c, High)
					th.Sleep(gap)
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return worst
	}
	// Bound: 8 threads * (150 hold + ~130 handoff/migration) with slack.
	tk := maxWait(KindTicket)
	if tk > 8*(150+300) {
		t.Errorf("ticket max wait %dns exceeds FIFO bound", tk)
	}
	m := maxWait(KindMutex)
	t.Logf("max wait: ticket %dns, mutex %dns", tk, m)
	if m < 2*tk {
		t.Errorf("mutex max wait (%d) should far exceed ticket's (%d)", m, tk)
	}
}

// TestParseKind: every valid Kind round-trips through its String in any
// case, and an unknown name is an error.
func TestParseKind(t *testing.T) {
	for k := KindMutex; k.Valid(); k++ {
		for _, name := range []string{k.String(), strings.ToLower(k.String()), strings.ToUpper(k.String())} {
			got, err := ParseKind(name)
			if err != nil || got != k {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, k)
			}
		}
	}
	for _, name := range []string{"", "bogus", "UnknownLock", "mutex "} {
		if k, err := ParseKind(name); err == nil {
			t.Errorf("ParseKind(%q) = %v, want an error", name, k)
		}
	}
}
