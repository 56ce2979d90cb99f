package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mpicontend/internal/fault"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/sim"
)

// withCrash is a testWorld option scheduling fail-stop crashes.
func withCrash(specs ...fault.CrashSpec) func(*Config) {
	return func(c *Config) { c.Fault = fault.Config{Crashes: specs} }
}

func errCode(t *testing.T, err error, want Errcode) {
	t.Helper()
	var merr *Error
	if !errors.As(err, &merr) || merr.Code != want {
		t.Fatalf("want %v, got %v", want, err)
	}
}

func TestCrashDetectedAndSendsFail(t *testing.T) {
	w := testWorld(t, 2, withCrash(fault.CrashSpec{Rank: 1, AtNs: 150_000}))
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	var sendErr error
	w.Spawn(0, "sender", func(th *Thread) {
		for i := 0; ; i++ {
			if err := th.Wait(th.Isend(c, 1, 7, 64, i)); err != nil {
				sendErr = err
				return
			}
			th.S.Sleep(20_000)
		}
	})
	w.Spawn(1, "victim", func(th *Thread) {
		for {
			th.Recv(c, 0, 7)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	errCode(t, sendErr, ErrProcFailed)
	rec := w.Recovery()
	if len(rec.Crashed) != 1 || rec.Crashed[0] != 1 {
		t.Fatalf("crashed ranks: %v", rec.Crashed)
	}
	if rec.FirstCrashNs != 150_000 {
		t.Fatalf("crash time: %d", rec.FirstCrashNs)
	}
	// Detection is bounded by the heartbeat timeout (100µs x 3) plus one
	// period of staleness-check granularity and wire latency.
	if rec.DetectNs <= 0 || rec.DetectNs > 600_000 {
		t.Fatalf("detection latency out of bounds: %d", rec.DetectNs)
	}
	if w.FaultPlane().Stats().Crashes != 1 {
		t.Fatalf("crash not counted: %v", w.FaultPlane().Stats())
	}
}

func TestCrashMidRendezvousAbortsInsteadOfRetrying(t *testing.T) {
	// The victim is already dead (but not yet detected) when the RTS goes
	// out: the blackholed packet is never acknowledged and retransmits —
	// until the detector declares the peer dead and the transport aborts
	// the record (dead-peer check) instead of burning retries to
	// exhaustion.
	w := testWorld(t, 2, withCrash(fault.CrashSpec{Rank: 1, AtNs: 20_000}))
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	big := w.Cfg.Cost.EagerThreshold * 4
	var sendErr error
	w.Spawn(0, "sender", func(th *Thread) {
		th.S.Sleep(50_000) // the victim is dead but not yet detected
		sendErr = th.Wait(th.Isend(c, 1, 1, big, "doomed"))
	})
	w.Spawn(1, "victim", func(th *Thread) {
		th.S.Sleep(5_000_000) // sleeps through its own crash
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	errCode(t, sendErr, ErrProcFailed)
	rec := w.Recovery()
	if rec.DeadAborts == 0 {
		t.Fatalf("transport kept retrying into the dead rank: %+v", rec)
	}
	if w.NetStats().GiveUps != 0 {
		t.Fatalf("dead-peer abort must preempt retry exhaustion: %v", w.NetStats())
	}
}

func TestRevokeInterruptsBlockedWait(t *testing.T) {
	// The crash is scheduled far beyond the run, arming the FT plane
	// without ever firing.
	w := testWorld(t, 2, withCrash(fault.CrashSpec{Rank: 0, AtNs: 1_000_000_000}))
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	var waitErr error
	var revokedSeen bool
	w.Spawn(1, "blocked", func(th *Thread) {
		waitErr = th.Wait(th.Irecv(c, 0, 9)) // nobody ever sends
		revokedSeen = th.Revoked(c)
	})
	w.Spawn(0, "revoker", func(th *Thread) {
		th.S.Sleep(100_000)
		th.Revoke(c)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	errCode(t, waitErr, ErrRevoked)
	if !revokedSeen {
		t.Fatal("revocation not visible on the remote rank")
	}
	if rec := w.Recovery(); rec.Revokes != 1 {
		t.Fatalf("revoke not counted: %+v", rec)
	}
}

func TestRevokeInterruptsBlockedCollective(t *testing.T) {
	w := testWorld(t, 2, withCrash(fault.CrashSpec{Rank: 0, AtNs: 1_000_000_000}))
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	var collErr error
	w.Spawn(1, "blocked", func(th *Thread) {
		collErr = th.BarrierErr(c) // rank 0 never enters
	})
	w.Spawn(0, "revoker", func(th *Thread) {
		th.S.Sleep(100_000)
		th.Revoke(c)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	errCode(t, collErr, ErrRevoked)
}

// TestFatalHandlerPanicsAtCollectiveEntry: the collective-entry check
// raises through the error handler like any request error, so under the
// default fatal handler a plain Barrier on a revoked communicator ends the
// run at entry instead of skipping the check.
func TestFatalHandlerPanicsAtCollectiveEntry(t *testing.T) {
	w := testWorld(t, 2, withCrash(fault.CrashSpec{Rank: 1, AtNs: 1_000_000_000}))
	c := w.Comm()
	w.Spawn(0, "revoker", func(th *Thread) {
		th.Revoke(c)
		th.Barrier(c)
		t.Error("Barrier on a revoked comm returned under the fatal handler")
	})
	err := w.Run()
	var perr *sim.PanicError
	if !errors.As(err, &perr) || !strings.Contains(fmt.Sprint(perr.Value), ErrRevoked.String()) {
		t.Fatalf("run returned %v, want a *sim.PanicError raising %v", err, ErrRevoked)
	}
}

// waitForFailure polls this process's local failure knowledge until it
// sees at least one dead member.
func waitForFailure(th *Thread, c *Comm) {
	for len(th.Failed(c)) == 0 {
		th.S.Sleep(10_000)
	}
}

func TestShrinkAfterCrash(t *testing.T) {
	w := testWorld(t, 4, withCrash(fault.CrashSpec{Rank: 2, AtNs: 100_000}))
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	newRank := map[int]int{}
	newSize := map[int]int{}
	sums := map[int]int64{}
	for rank := 0; rank < 4; rank++ {
		rank := rank
		w.Spawn(rank, "worker", func(th *Thread) {
			if rank == 2 {
				for {
					th.Recv(c, 0, 9) // blocks until the crash
				}
			}
			waitForFailure(th, c)
			th.Revoke(c)
			sh, err := th.Shrink(c)
			if err != nil {
				t.Errorf("rank %d shrink: %v", rank, err)
				return
			}
			newRank[rank] = sh.Rank(th)
			newSize[rank] = sh.Size()
			sum, err := th.AllreduceSumErr(sh, int64(rank))
			if err != nil {
				t.Errorf("rank %d allreduce on shrunk comm: %v", rank, err)
				return
			}
			sums[rank] = sum
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[int]int{0: 0, 1: 1, 3: 2} // survivors renumber, order kept
	for r, nr := range want {
		if newRank[r] != nr {
			t.Errorf("world rank %d: shrunk rank %d, want %d", r, newRank[r], nr)
		}
		if newSize[r] != 3 {
			t.Errorf("world rank %d: shrunk size %d, want 3", r, newSize[r])
		}
		if sums[r] != 0+1+3 {
			t.Errorf("world rank %d: allreduce sum %d, want 4", r, sums[r])
		}
	}
	rec := w.Recovery()
	if rec.Shrinks != 3 {
		t.Errorf("recovery counters: %+v", rec)
	}
	if rec.ErrPathLocks == 0 {
		t.Errorf("recovery code acquired no locks on the error path: %+v", rec)
	}
}

func TestCrashOnLockHoldStrandsLocalWaiters(t *testing.T) {
	// The victim dies at its first critical-section acquisition after AtNs,
	// holding the lock: its second thread is stranded forever, and the
	// survivor must still detect the failure and finish.
	w := testWorld(t, 2, withCrash(fault.CrashSpec{Rank: 1, AtNs: 50_000, OnLockHold: true}))
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	var sendErr error
	w.Spawn(0, "sender", func(th *Thread) {
		for i := 0; ; i++ {
			if err := th.Wait(th.Isend(c, 1, 7, 64, i)); err != nil {
				sendErr = err
				return
			}
			th.S.Sleep(20_000)
		}
	})
	for i := 0; i < 2; i++ {
		w.Spawn(1, "victim", func(th *Thread) {
			for {
				th.Recv(c, 0, 7)
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	errCode(t, sendErr, ErrProcFailed)
	rec := w.Recovery()
	if len(rec.Crashed) != 1 || rec.Crashed[0] != 1 {
		t.Fatalf("crashed ranks: %v", rec.Crashed)
	}
	if rec.FirstCrashNs < 50_000 {
		t.Fatalf("lock-hold crash fired before its arm time: %d", rec.FirstCrashNs)
	}
}

func TestNodeCrashKillsColocatedRanks(t *testing.T) {
	// Two ranks per node: a node-scope crash of rank 2 takes rank 3 with it.
	w := testWorld(t, 2, withCrash(fault.CrashSpec{Rank: 2, AtNs: 100_000, Node: true}),
		func(c *Config) { c.ProcsPerNode = 2 })
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	errs := map[int]error{}
	for rank := 0; rank < 4; rank++ {
		rank := rank
		w.Spawn(rank, "worker", func(th *Thread) {
			if rank >= 2 {
				for {
					th.Recv(c, 0, 9)
				}
			}
			peer := rank + 2 // 0 -> 2, 1 -> 3
			for i := 0; ; i++ {
				if err := th.Wait(th.Isend(c, peer, 7, 64, i)); err != nil {
					errs[rank] = err
					return
				}
				th.S.Sleep(20_000)
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	errCode(t, errs[0], ErrProcFailed)
	errCode(t, errs[1], ErrProcFailed)
	rec := w.Recovery()
	if len(rec.Crashed) != 2 || rec.Crashed[0] != 2 || rec.Crashed[1] != 3 {
		t.Fatalf("node crash must kill both colocated ranks: %v", rec.Crashed)
	}
}

func TestCollectiveAgainstSilentPeerTimesOut(t *testing.T) {
	// Satellite regression: a collective whose peer never participates must
	// surface ErrTimeout through the per-request deadline — not hang. No
	// crash is scheduled; this is the pre-FT deadline path.
	w := testWorld(t, 2, withFault(fault.Config{
		DropProb: 0.001, RequestTimeoutNs: 200_000,
	}))
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	var collErr error
	w.Spawn(0, "barrier", func(th *Thread) {
		collErr = th.BarrierErr(c)
	})
	w.Spawn(1, "silent", func(th *Thread) {
		th.S.Sleep(1_000_000) // never enters the barrier
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	errCode(t, collErr, ErrTimeout)
}

func TestErrVariantCollectivesMatchValueAPI(t *testing.T) {
	// On a healthy world the Err variants must compute the same results as
	// the value-returning collectives, which are them with the error
	// dropped.
	w := testWorld(t, 4)
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	sums := make([]int64, 4)
	maxs := make([]int64, 4)
	mins := make([]int64, 4)
	for rank := 0; rank < 4; rank++ {
		rank := rank
		w.Spawn(rank, "worker", func(th *Thread) {
			if err := th.BarrierErr(c); err != nil {
				t.Errorf("rank %d barrier: %v", rank, err)
			}
			v := int64(rank + 1)
			var err error
			if sums[rank], err = th.AllreduceSumErr(c, v); err != nil {
				t.Errorf("rank %d sum: %v", rank, err)
			}
			if maxs[rank], err = th.AllreduceMaxErr(c, v); err != nil {
				t.Errorf("rank %d max: %v", rank, err)
			}
			if mins[rank], err = th.AllreduceMinErr(c, v); err != nil {
				t.Errorf("rank %d min: %v", rank, err)
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if sums[r] != 10 || maxs[r] != 4 || mins[r] != 1 {
			t.Errorf("rank %d: sum=%d max=%d min=%d", r, sums[r], maxs[r], mins[r])
		}
	}
}

func TestCrashyRunDeterministic(t *testing.T) {
	run := func() (int64, string, NetStats) {
		w := testWorld(t, 4, withCrash(fault.CrashSpec{Rank: 2, AtNs: 100_000}))
		w.SetErrhandler(ErrorsReturn)
		c := w.Comm()
		for rank := 0; rank < 4; rank++ {
			rank := rank
			w.Spawn(rank, "worker", func(th *Thread) {
				if rank == 2 {
					for {
						th.Recv(c, 0, 9)
					}
				}
				waitForFailure(th, c)
				th.Revoke(c)
				sh, err := th.Shrink(c)
				if err != nil {
					t.Errorf("shrink: %v", err)
					return
				}
				if _, err := th.AllreduceSumErr(sh, int64(rank)); err != nil {
					t.Errorf("allreduce: %v", err)
				}
			})
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		rec := w.Recovery()
		if len(rec.Crashed) != 1 {
			t.Fatalf("crashed: %v", rec.Crashed)
		}
		return w.Eng.Now(), fmt.Sprintf("%+v", rec), w.NetStats()
	}
	t1, r1, s1 := run()
	t2, r2, s2 := run()
	if t1 != t2 {
		t.Fatalf("final virtual time diverged: %d vs %d", t1, t2)
	}
	if r1 != r2 {
		t.Fatalf("recovery stats diverged:\n%s\n%s", r1, r2)
	}
	if s1 != s2 {
		t.Fatalf("net stats diverged:\n%v\n%v", s1, s2)
	}
}

func TestFailedRequestIsNotPooled(t *testing.T) {
	// Satellite regression for the request pool: a failed request must
	// never be recycled, even when marked poolable — late protocol events
	// (a straggling ack, a retransmit timer) may still reference it, and
	// recycling would hand its memory to an unrelated operation. Pinned on
	// the shard pool the request lives on, with one shard and with four.
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("vcis=%d", n), func(t *testing.T) {
			w := testWorld(t, 2, withVCIs(n, vci.PerTagHash))
			w.SetErrhandler(ErrorsReturn)
			p := w.Procs[0]
			v := n - 1
			sh := p.vcis[v]

			bad := p.allocReq(v)
			*bad = Request{p: p, kind: SendReq, dst: 1, poolable: true, vci: v}
			p.outstanding++
			bad.fail(ErrProcFailed, 0)
			bad.free()
			if err := bad.raise(); err == nil {
				t.Fatal("raise must surface the failure")
			}
			p.recycle(bad)
			if sh.reqFree != nil {
				t.Fatal("failed request was recycled into the pool")
			}

			good := p.allocReq(v)
			*good = Request{p: p, kind: SendReq, dst: 1, poolable: true, vci: v}
			p.outstanding++
			good.markComplete(0)
			good.free()
			if err := good.raise(); err != nil {
				t.Fatal(err)
			}
			p.recycle(good)
			if sh.reqFree != good {
				t.Fatal("healthy poolable request was not recycled into its shard's pool")
			}
			if again := p.allocReq(v); again != good {
				t.Fatal("shard pool did not hand the recycled request back")
			}
		})
	}
}

func TestErrcodeStringExhaustive(t *testing.T) {
	// Satellite: every error class must stringify as an MPI constant; the
	// default case is reserved for out-of-range values.
	for c := ErrSuccess; c < errcodeEnd; c++ {
		if s := c.String(); strings.HasPrefix(s, "Errcode(") {
			t.Errorf("Errcode %d has no String case: %q", int(c), s)
		}
	}
	if s := errcodeEnd.String(); !strings.HasPrefix(s, "Errcode(") {
		t.Errorf("sentinel must hit the default case, got %q", s)
	}
}

// TestPartitionedCrashSendSide: the receiver dies while the sender keeps
// opening partitioned epochs. An epoch injected before detection completes
// locally (TxDone semantics, like an eager send), but once the failure
// detector declares the peer dead the next Pstart fails at issue and Pwait
// surfaces ErrProcFailed. The errored inner request must not be eligible
// for pooling — the Prequest keeps reading it afterwards.
func TestPartitionedCrashSendSide(t *testing.T) {
	w := testWorld(t, 2, withCrash(fault.CrashSpec{Rank: 1, AtNs: 150_000}))
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	const parts = 8
	var waitErr error
	var inner *Request
	w.Spawn(0, "sender", func(th *Thread) {
		ps := th.PsendInit(c, 1, 7, parts, 64, "doomed")
		for {
			th.Pstart(ps)
			inner = ps.Request()
			if err := th.preadyRange(ps, 0, parts); err != nil {
				t.Errorf("preadyRange: %v", err)
				return
			}
			if waitErr = th.Pwait(ps); waitErr != nil {
				return
			}
			th.S.Sleep(20_000)
		}
	})
	w.Spawn(1, "victim", func(th *Thread) {
		pr := th.PrecvInit(c, 0, 7, parts, 64)
		for {
			th.Pstart(pr)
			if th.Pwait(pr) != nil {
				return
			}
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	errCode(t, waitErr, ErrProcFailed)
	if inner.poolable {
		t.Fatal("partitioned inner request marked poolable: the pool would reclaim it under the live Prequest")
	}
	if w.FaultPlane().Stats().Crashes != 1 {
		t.Fatalf("crash not counted: %v", w.FaultPlane().Stats())
	}
}

// TestPartitionedCrashRecvSide: the sender dies before triggering its
// epoch. The posted partitioned receive is withdrawn by failure
// notification, Parrived surfaces ErrProcFailed (instead of spinning
// forever on a dead peer), Pwait agrees, and the errored inner request is
// not pooled.
func TestPartitionedCrashRecvSide(t *testing.T) {
	w := testWorld(t, 2, withCrash(fault.CrashSpec{Rank: 0, AtNs: 30_000}))
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	const parts = 8
	var probeErr, waitErr error
	var inner *Request
	w.Spawn(0, "victim", func(th *Thread) {
		ps := th.PsendInit(c, 1, 7, parts, 64, "never-sent")
		th.Pstart(ps)
		// Ready only half the epoch, then die before the trigger.
		if err := th.preadyRange(ps, 0, parts/2); err != nil {
			t.Errorf("preadyRange: %v", err)
		}
		for {
			th.S.Sleep(10_000)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		pr := th.PrecvInit(c, 0, 7, parts, 64)
		th.Pstart(pr)
		inner = pr.Request()
		for {
			arrived, err := th.Parrived(pr, 0)
			if err != nil {
				probeErr = err
				break
			}
			if arrived {
				t.Error("partition arrived from a sender that never triggered")
				break
			}
			th.S.Sleep(5_000)
		}
		waitErr = th.Pwait(pr)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	errCode(t, probeErr, ErrProcFailed)
	errCode(t, waitErr, ErrProcFailed)
	if inner.poolable {
		t.Fatal("partitioned inner request marked poolable: the pool would reclaim it under the live Prequest")
	}
}

// TestCrashedThreadReturnsToHost: rank 0's host thread sleeps across rank
// 1's crash, so its event loop takes the victim's start and switches into
// it, and the victim's polls run in the victim's own loop. At its first
// poll after the crash the victim unwinds by rankCrashed, its coroutine
// returns to the host's loop, and the host takes its own wake there. Only
// two switches into a coroutine happen, each with its switch back: Run
// into the host, and the host into the victim.
func TestCrashedThreadReturnsToHost(t *testing.T) {
	const crashAt, hostWake = 150_000, 1_000_000
	w := testWorld(t, 2, withCrash(fault.CrashSpec{Rank: 1, AtNs: crashAt}))
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	var woke sim.Time = -1
	w.Spawn(0, "host", func(th *Thread) {
		th.S.Sleep(hostWake)
		woke = th.S.Now()
	})
	victim := w.Spawn(1, "victim", func(th *Thread) {
		for {
			th.Recv(c, 0, 7)
		}
	})
	var unwound sim.Time = -1
	w.Eng.OnThreadState = func(st *sim.Thread, s sim.ThreadState) {
		if st == victim.S && s == sim.StateDone {
			unwound = w.Eng.Now()
		}
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if unwound < crashAt || unwound >= hostWake || woke != hostWake {
		t.Fatalf("victim unwound at %d, host woke at %d; want the unwind in [%d, %d) and the wake at %d",
			unwound, woke, crashAt, hostWake, hostWake)
	}
	if s := w.Eng.Stats(); s.Switches != 4 {
		t.Fatalf("stats %+v: want 4 switches, Run's into the host and the host's into the victim", s)
	}
}
