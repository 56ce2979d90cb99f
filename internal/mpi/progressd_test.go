package mpi

import (
	"fmt"
	"testing"

	"mpicontend/internal/machine"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/simlock"
)

// withProgress is a testWorld option selecting a progress mode.
func withProgress(m ProgressMode) func(*Config) {
	return func(c *Config) { c.Progress = m }
}

// TestStrongProgressSendRecv: basic two-sided traffic completes under
// strong progress — the daemons drive matching and completion while both
// application threads block parked.
func TestStrongProgressSendRecv(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("vcis=%d", n), func(t *testing.T) {
			w := testWorld(t, 2, withProgress(ProgressStrong), withVCIs(n, vci.PerTagHash))
			c := w.Comm()
			var got interface{}
			w.Spawn(0, "sender", func(th *Thread) {
				th.Send(c, 1, 7, 64, "hello")
			})
			w.Spawn(1, "receiver", func(th *Thread) {
				got = th.Recv(c, 0, 7)
			})
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			if got != "hello" {
				t.Fatalf("got %v", got)
			}
			if w.DanglingNow() != 0 {
				t.Fatalf("dangling requests leaked: %d", w.DanglingNow())
			}
		})
	}
}

// TestStrongProgressRendezvous: the multi-step rendezvous protocol
// (RTS/CTS/RData) advances entirely on daemon progress rounds.
func TestStrongProgressRendezvous(t *testing.T) {
	w := testWorld(t, 2, withProgress(ProgressStrong))
	c := w.Comm()
	big := w.Cfg.Cost.EagerThreshold * 4
	var got interface{}
	w.Spawn(0, "sender", func(th *Thread) {
		th.Send(c, 1, 1, big, "bulk")
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		got = th.Recv(c, 0, 1)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "bulk" {
		t.Fatalf("got %v", got)
	}
}

// TestStrongProgressWaitall: Waitall parks between completion events and
// reaps shard by shard; all payloads arrive across a sharded runtime.
func TestStrongProgressWaitall(t *testing.T) {
	const msgs = 8
	w := testWorld(t, 2, withProgress(ProgressStrong), withVCIs(4, vci.PerTagHash))
	c := w.Comm()
	got := make(map[int]interface{})
	w.Spawn(0, "sender", func(th *Thread) {
		rs := make([]*Request, 0, msgs)
		for tag := 0; tag < msgs; tag++ {
			rs = append(rs, th.Isend(c, 1, tag, 64, tag*tag))
		}
		if err := th.Waitall(rs); err != nil {
			t.Errorf("sender waitall: %v", err)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		rs := make([]*Request, 0, msgs)
		bufs := make([]interface{}, msgs)
		for tag := 0; tag < msgs; tag++ {
			rs = append(rs, th.IrecvN(c, 0, tag, -1, &bufs[tag]))
		}
		if err := th.Waitall(rs); err != nil {
			t.Errorf("receiver waitall: %v", err)
		}
		for tag, data := range bufs {
			got[tag] = data
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for tag := 0; tag < msgs; tag++ {
		if got[tag] != tag*tag {
			t.Fatalf("tag %d: got %v, want %d", tag, got[tag], tag*tag)
		}
	}
	if w.DanglingNow() != 0 {
		t.Fatalf("dangling requests leaked: %d", w.DanglingNow())
	}
}

// TestContinuationWaitall: the continuation-mode Waitall (batched
// completion-queue enqueue + drain) delivers every payload, on both the
// unsharded and sharded runtimes.
func TestContinuationWaitall(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("vcis=%d", n), func(t *testing.T) {
			const msgs = 8
			w := testWorld(t, 2, withProgress(ProgressContinuation), withVCIs(n, vci.PerTagHash))
			c := w.Comm()
			got := make(map[int]interface{})
			w.Spawn(0, "sender", func(th *Thread) {
				rs := make([]*Request, 0, msgs)
				for tag := 0; tag < msgs; tag++ {
					rs = append(rs, th.Isend(c, 1, tag, 64, fmt.Sprintf("m%d", tag)))
				}
				if err := th.Waitall(rs); err != nil {
					t.Errorf("sender waitall: %v", err)
				}
			})
			w.Spawn(1, "receiver", func(th *Thread) {
				rs := make([]*Request, 0, msgs)
				bufs := make([]interface{}, msgs)
				for tag := 0; tag < msgs; tag++ {
					rs = append(rs, th.IrecvN(c, 0, tag, -1, &bufs[tag]))
				}
				if err := th.Waitall(rs); err != nil {
					t.Errorf("receiver waitall: %v", err)
				}
				for tag, data := range bufs {
					got[tag] = data
				}
			})
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			for tag := 0; tag < msgs; tag++ {
				if got[tag] != fmt.Sprintf("m%d", tag) {
					t.Fatalf("tag %d: got %v", tag, got[tag])
				}
			}
			if w.DanglingNow() != 0 {
				t.Fatalf("dangling requests leaked: %d", w.DanglingNow())
			}
		})
	}
}

// TestProgressModeValidation: NewWorld accepts a configuration exactly
// when its VCI count and its progress mode are each allowed at its
// granularity and thread level. More than one VCI, strong progress and
// continuation progress need GranGlobal under MPI_THREAD_MULTIPLE;
// selective wake-up is a polling mode and is accepted wherever polling
// is.
func TestProgressModeValidation(t *testing.T) {
	modes := []ProgressMode{ProgressPolling, ProgressStrong, ProgressContinuation, ProgressSelective}
	grans := []Granularity{GranGlobal, GranBrief, GranFine, GranLockFree}
	levels := []ThreadLevel{ThreadMultiple, ThreadSingle, ThreadFunneled, ThreadSerialized}
	accepted := map[string]bool{}
	for _, m := range modes {
		for _, g := range grans {
			for _, lvl := range levels {
				for _, vcis := range []int{1, 4} {
					key := fmt.Sprintf("%v/%v/%v/%d", m, g, lvl, vcis)
					_, err := NewWorld(Config{Topo: machine.Nehalem2x4(2), Lock: simlock.KindTicket,
						Seed: 1, Progress: m, Granularity: g, ThreadLevel: lvl, VCIs: vcis})
					whole := g == GranGlobal && lvl == ThreadMultiple
					daemons := m == ProgressStrong || m == ProgressContinuation
					want := (vcis == 1 || whole) && (!daemons || whole)
					if got := err == nil; got != want {
						t.Errorf("%s: accepted=%v (err %v), want %v", key, got, err, want)
					}
					accepted[key] = err == nil
				}
			}
		}
	}
	for _, g := range grans {
		for _, lvl := range levels {
			for _, vcis := range []int{1, 4} {
				sel := fmt.Sprintf("%v/%v/%v/%d", ProgressSelective, g, lvl, vcis)
				poll := fmt.Sprintf("%v/%v/%v/%d", ProgressPolling, g, lvl, vcis)
				if accepted[sel] != accepted[poll] {
					t.Errorf("%s accepted=%v but %s accepted=%v", sel, accepted[sel], poll, accepted[poll])
				}
			}
		}
	}
	if _, err := NewWorld(Config{Topo: machine.Nehalem2x4(2), Lock: simlock.KindTicket,
		Progress: ProgressSelective + 1}); err == nil {
		t.Error("progress mode past ProgressSelective accepted")
	}
	if ProgressSelective.String() != "selective" {
		t.Errorf("ProgressSelective.String() = %q", ProgressSelective.String())
	}
}

// TestProgressModeDeterminism: each mode reproduces the identical final
// virtual time across two identically-seeded runs.
func TestProgressModeDeterminism(t *testing.T) {
	for _, m := range []ProgressMode{ProgressStrong, ProgressContinuation, ProgressSelective} {
		t.Run(m.String(), func(t *testing.T) {
			run := func() int64 {
				const msgs = 6
				w := testWorld(t, 2, withProgress(m), withVCIs(4, vci.PerTagHash))
				c := w.Comm()
				w.Spawn(0, "sender", func(th *Thread) {
					rs := make([]*Request, 0, msgs)
					for tag := 0; tag < msgs; tag++ {
						rs = append(rs, th.Isend(c, 1, tag, 256, tag))
					}
					if err := th.Waitall(rs); err != nil {
						t.Errorf("waitall: %v", err)
					}
				})
				w.Spawn(1, "receiver", func(th *Thread) {
					rs := make([]*Request, 0, msgs)
					for tag := 0; tag < msgs; tag++ {
						rs = append(rs, th.Irecv(c, 0, tag))
					}
					if err := th.Waitall(rs); err != nil {
						t.Errorf("waitall: %v", err)
					}
				})
				if err := w.Run(); err != nil {
					t.Fatal(err)
				}
				return w.Eng.Now()
			}
			t1, t2 := run(), run()
			if t1 != t2 {
				t.Fatalf("final virtual time diverged: %d vs %d", t1, t2)
			}
		})
	}
}
