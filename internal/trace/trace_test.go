package trace

import (
	"math"
	"strings"
	"testing"

	"mpicontend/internal/machine"
)

func place(sock, core int) machine.Place { return machine.Place{Node: 0, Socket: sock, Core: core} }

func grant(id int, p machine.Place, waiters ...machine.Place) Grant {
	return Grant{ThreadID: id, Place: p, Waiters: waiters}
}

func TestFairnessAllSameThread(t *testing.T) {
	var f FairnessAnalyzer
	w := []machine.Place{place(0, 1), place(1, 0)}
	for i := 0; i < 10; i++ {
		f.Observe(grant(0, place(0, 0), w...))
	}
	if f.Samples() != 9 { // first grant only seeds prev
		t.Fatalf("samples = %d, want 9", f.Samples())
	}
	if f.Pc() != 1.0 {
		t.Fatalf("Pc = %v, want 1", f.Pc())
	}
	if f.Ps() != 1.0 {
		t.Fatalf("Ps = %v, want 1", f.Ps())
	}
	// Fair baseline with 3 candidates: Pc_fair = 1/3.
	if math.Abs(f.FairPc()-1.0/3.0) > 1e-9 {
		t.Fatalf("FairPc = %v, want 1/3", f.FairPc())
	}
	if math.Abs(f.BiasFactorCore()-3.0) > 1e-9 {
		t.Fatalf("BiasFactorCore = %v, want 3", f.BiasFactorCore())
	}
}

func TestFairnessRoundRobinIsUnbiased(t *testing.T) {
	var f FairnessAnalyzer
	// 4 threads, 2 per socket, perfect round-robin with all others waiting.
	places := []machine.Place{place(0, 0), place(0, 1), place(1, 0), place(1, 1)}
	for i := 0; i < 400; i++ {
		id := i % 4
		var waiters []machine.Place
		for j, p := range places {
			if j != id {
				waiters = append(waiters, p)
			}
		}
		f.Observe(grant(id, places[id], waiters...))
	}
	if f.Pc() != 0 {
		t.Fatalf("round robin Pc = %v, want 0", f.Pc())
	}
	// Fair Pc = 1/4; bias factor = 0 (observed never repeats).
	if math.Abs(f.FairPc()-0.25) > 1e-9 {
		t.Fatalf("FairPc = %v", f.FairPc())
	}
	// Socket: round robin 0,1,2,3: successive owners alternate sockets
	// except 0->1 and 2->3 transitions: Ps = 1/2... wait: 0(s0)->1(s0)
	// same, 1->2 diff, 2->3 same, 3->0 diff: Ps = 0.5. Fair Ps = 0.5.
	if math.Abs(f.BiasFactorSocket()-1.0) > 0.01 {
		t.Fatalf("BiasFactorSocket = %v, want ~1", f.BiasFactorSocket())
	}
}

func TestFairnessSkipsUncontended(t *testing.T) {
	var f FairnessAnalyzer
	f.Observe(grant(0, place(0, 0)))
	f.Observe(grant(0, place(0, 0))) // no waiters: skipped
	f.Observe(grant(0, place(0, 0)))
	if f.Samples() != 0 {
		t.Fatalf("uncontended grants were counted: %d", f.Samples())
	}
	// But prev tracking still advances: a contended grant by thread 1
	// right after thread 0 must not be counted as same-core.
	f.Observe(grant(1, place(0, 1), place(1, 0)))
	if f.Samples() != 1 || f.Pc() != 0 {
		t.Fatalf("samples=%d Pc=%v", f.Samples(), f.Pc())
	}
}

func TestFairnessEmpty(t *testing.T) {
	var f FairnessAnalyzer
	if f.Pc() != 0 || f.Ps() != 0 || f.BiasFactorCore() != 0 || f.BiasFactorSocket() != 0 {
		t.Fatal("empty analyzer should report zeros")
	}
}

func TestDanglingProfiler(t *testing.T) {
	var d DanglingProfiler
	for _, v := range []int{0, 5, 10, 5} {
		d.Observe(v)
	}
	if d.Average() != 5 {
		t.Fatalf("avg = %v, want 5", d.Average())
	}
	if d.Max() != 10 {
		t.Fatalf("max = %v, want 10", d.Max())
	}
	if d.SamplesTaken() != 4 {
		t.Fatalf("samples = %d", d.SamplesTaken())
	}
}

func TestDanglingProfilerEmpty(t *testing.T) {
	var d DanglingProfiler
	if d.SamplesTaken() != 0 || d.Average() != 0 || d.Max() != 0 {
		t.Fatal("empty profiler must report zeros")
	}
}

func TestTimeline(t *testing.T) {
	var tl Timeline
	for i := 0; i < 10; i++ {
		tl = append(tl, TimelineGrant{At: int64(i * 100), Thread: i % 2})
	}
	out := tl.Render(20)
	if !strings.Contains(out, "thread 0") || !strings.Contains(out, "thread 1") {
		t.Fatalf("render missing threads:\n%s", out)
	}
	if !strings.Contains(out, "(10 grants)") || !strings.Contains(out, "50.0%") {
		t.Fatalf("shares wrong:\n%s", out)
	}
}

func TestTimelineMonopolyMetrics(t *testing.T) {
	var tl Timeline
	// 8 grants to thread 0, then 2 to thread 1.
	for i := 0; i < 8; i++ {
		tl = append(tl, TimelineGrant{At: int64(i), Thread: 0})
	}
	for i := 8; i < 10; i++ {
		tl = append(tl, TimelineGrant{At: int64(i), Thread: 1})
	}
	if got := tl.MaxShare(); got != 0.8 {
		t.Fatalf("MaxShare = %v", got)
	}
	if got := tl.LongestRun(); got != 8 {
		t.Fatalf("LongestRun = %v", got)
	}
}

func TestTimelineEmpty(t *testing.T) {
	var tl Timeline
	if out := tl.Render(10); !strings.Contains(out, "no grants") {
		t.Fatalf("empty render = %q", out)
	}
	if tl.MaxShare() != 0 || tl.LongestRun() != 0 {
		t.Fatal("empty metrics should be zero")
	}
}

func TestTimelineNoMarksNoExtraRow(t *testing.T) {
	tl := Timeline{{At: 0, Thread: 0}}
	out := tl.Render(10)
	if strings.Count(out, "|") != 2 {
		t.Fatalf("want the ownership row only:\n%s", out)
	}
}

// TestWaitSetStrictRule pins the waiting-set rule: a thread waits at a
// grant only if it asked strictly before the grant's virtual time and has
// not been granted yet.
func TestWaitSetStrictRule(t *testing.T) {
	var s WaitSet
	s.Request(1, place(0, 0), 100)
	s.Request(2, place(0, 1), 99)  // 1 ns before the grant: waiting
	s.Request(3, place(1, 0), 100) // at the grant instant: not waiting
	g := s.Grant(1, place(0, 0), 100)
	if g.At != 100 || g.ThreadID != 1 || g.Place != place(0, 0) {
		t.Fatalf("grant = %+v", g)
	}
	if len(g.Waiters) != 1 || g.Waiters[0] != place(0, 1) {
		t.Fatalf("waiters at t=100 = %v, want only thread 2's place", g.Waiters)
	}
	// Thread 3's request now predates the next grant; the retired
	// grantee is gone, and the new grantee is never its own waiter.
	g = s.Grant(2, place(0, 1), 150)
	if len(g.Waiters) != 1 || g.Waiters[0] != place(1, 0) {
		t.Fatalf("waiters at t=150 = %v, want only thread 3's place", g.Waiters)
	}
	g = s.Grant(3, place(1, 0), 200)
	if len(g.Waiters) != 0 {
		t.Fatalf("waiters of the last grant = %v, want none", g.Waiters)
	}
}
