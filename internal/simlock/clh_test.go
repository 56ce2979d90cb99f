package simlock

import (
	"testing"

	"mpicontend/internal/machine"
	"mpicontend/internal/sim"
	"mpicontend/internal/telemetry"
)

// TestCLHFIFO: like the ticket lock, CLH grants strictly in arrival order —
// the same thread never reacquires while others are queued.
func TestCLHFIFO(t *testing.T) {
	h := newHarness(t, KindCLH, 1)
	h.run(t, 8, 30, 500, 1, nil)
	for i := 1; i < len(h.grants); i++ {
		g := h.grants[i]
		if g.ThreadID == h.grants[i-1].ThreadID && len(h.grants[i-1].Waiters) > 0 {
			t.Fatalf("grant %d: thread %d reacquired while %d waiters queued",
				i, g.ThreadID, len(h.grants[i-1].Waiters))
		}
	}
}

// TestCLHHandoffBeatsTicket: the CLH waiter spins on a private predecessor
// line, so a hand-off completes one line transfer after the release. The
// ticket waiter spins on the shared now_serving line and additionally
// rounds up to its next spin check. Under a saturated FIFO workload the
// CLH critical-section pipeline therefore finishes no later than the
// ticket lock's, and strictly earlier whenever SpinCheckPeriod > 0.
func TestCLHHandoffBeatsTicket(t *testing.T) {
	finish := func(kind Kind) sim.Time {
		eng := sim.NewEngine(5)
		topo := machine.Nehalem2x4(1)
		cfg := &Config{Eng: eng, Cost: machine.Default()}
		lock := New(kind, cfg)
		const hold, iters, threads = 300, 40, 8
		for i := 0; i < threads; i++ {
			place := topo.Bind(machine.Compact, 0, 0, 8, i)
			eng.Spawn("w", func(th *sim.Thread) {
				c := &Ctx{T: th, Place: place}
				for k := 0; k < iters; k++ {
					lock.Acquire(c, High)
					th.Sleep(hold)
					lock.Release(c, High)
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		return eng.Now()
	}
	clh, ticket := finish(KindCLH), finish(KindTicket)
	if clh > ticket {
		t.Fatalf("CLH finished at %d, later than ticket at %d", clh, ticket)
	}
	if machine.Default().SpinCheckPeriod > 0 && clh == ticket {
		t.Fatalf("CLH hand-off should beat the quantized ticket hand-off (both %d)", clh)
	}
}

// TestCLHDeterminism: same seed, same grant trace.
func TestCLHDeterminism(t *testing.T) {
	trace := func() []telemetry.Grant {
		h := newHarness(t, KindCLH, 99)
		h.run(t, 6, 25, 120, 15, nil)
		return h.grants
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("grant counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].ThreadID != b[i].ThreadID {
			t.Fatalf("grant %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
