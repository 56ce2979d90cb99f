package telemetry

import (
	"strings"
	"testing"

	"mpicontend/internal/machine"
)

func place(sock, core int) machine.Place { return machine.Place{Node: 0, Socket: sock, Core: core} }

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
