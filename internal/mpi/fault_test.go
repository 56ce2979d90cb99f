package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mpicontend/internal/fault"
	"mpicontend/internal/simlock"
)

// withFault is a testWorld option enabling a fault scenario.
func withFault(fc fault.Config) func(*Config) {
	return func(c *Config) { c.Fault = fc }
}

// runPingStream runs n eager messages rank 0 -> rank 1 and returns the
// world for invariant checks. Payloads are distinct so loss or duplication
// is observable.
func runPingStream(t *testing.T, n int, opts ...func(*Config)) *World {
	t.Helper()
	w := testWorld(t, 2, opts...)
	c := w.Comm()
	var got []interface{}
	w.Spawn(0, "sender", func(th *Thread) {
		for i := 0; i < n; i++ {
			th.Send(c, 1, 7, 64, i)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		for i := 0; i < n; i++ {
			got = append(got, th.Recv(c, 0, 7))
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d: got %v (lost/duplicated/reordered delivery)", i, v)
		}
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestResilientUnderDrop(t *testing.T) {
	w := runPingStream(t, 40, withFault(fault.Config{DropProb: 0.2}))
	s := w.NetStats()
	if s.Fault.Dropped == 0 {
		t.Fatalf("scenario injected no drops: %v", s)
	}
	if s.Retransmits == 0 {
		t.Fatalf("drops survived without retransmits: %v", s)
	}
	if s.GiveUps != 0 || s.RequestFailures != 0 {
		t.Fatalf("unexpected failures: %v", s)
	}
}

func TestResilientUnderDuplication(t *testing.T) {
	w := runPingStream(t, 40, withFault(fault.Config{DupProb: 0.3}))
	s := w.NetStats()
	if s.Fault.Duplicated == 0 {
		t.Fatalf("scenario injected no duplicates: %v", s)
	}
	if s.DupsSuppressed == 0 {
		t.Fatalf("duplicates reached the protocol layer: %v", s)
	}
}

func TestResilientUnderDelayAndReorder(t *testing.T) {
	runPingStream(t, 40, withFault(fault.Config{DelayProb: 0.4, DelayMaxNs: 50_000}))
}

func TestResilientUnderCombinedStorm(t *testing.T) {
	w := runPingStream(t, 30, withFault(fault.Config{
		DropProb: 0.1, DupProb: 0.1, DelayProb: 0.2,
		NICStallProb: 0.05, PreemptProb: 0.02,
	}))
	if w.NetStats().Retransmits == 0 {
		t.Fatal("storm scenario produced no retransmits")
	}
}

func TestResilientRendezvousUnderDrop(t *testing.T) {
	w := testWorld(t, 2, withFault(fault.Config{DropProb: 0.2}))
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
		t.Fatalf("rendezvous payload lost: %v", got)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
}

func TestResilientRMAUnderDrop(t *testing.T) {
	w := testWorld(t, 2, withFault(fault.Config{DropProb: 0.15}))
	win := w.NewWin(8)
	w.SpawnAsyncProgress(1) // passive target needs a progress thread
	w.Spawn(0, "origin", func(th *Thread) {
		r1 := th.Put(win, 1, 0, []float64{1, 2, 3})
		th.Wait(r1)
		var data interface{}
		th.Wait(th.Get(win, 1, 0, 3, &data))
		got := data.([]float64)
		if got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Errorf("rma roundtrip corrupted: %v", got)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultRunDeterministic(t *testing.T) {
	run := func() (int64, NetStats) {
		w := runPingStream(t, 30, withFault(fault.Config{
			DropProb: 0.15, DupProb: 0.1, DelayProb: 0.2,
		}))
		return w.Eng.Now(), w.NetStats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Fatalf("final virtual time diverged: %d vs %d", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("net stats diverged:\n%v\n%v", s1, s2)
	}
}

func TestWaitOnTimedOutRecvReturnsError(t *testing.T) {
	w := testWorld(t, 2, withFault(fault.Config{
		DropProb: 0.001, RequestTimeoutNs: 200_000,
	}))
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	var waitErr error
	w.Spawn(0, "receiver", func(th *Thread) {
		r := th.Irecv(c, 1, 9) // nobody ever sends
		waitErr = th.Wait(r)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var merr *Error
	if !errors.As(waitErr, &merr) || merr.Code != ErrTimeout {
		t.Fatalf("want MPI_ERR_TIMEOUT, got %v", waitErr)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatalf("timed-out recv left residue: %v", err)
	}
	if w.NetStats().RequestFailures != 1 {
		t.Fatalf("failure not counted: %v", w.NetStats())
	}
}

func TestTimedOutRequestIsFatalByDefault(t *testing.T) {
	w := testWorld(t, 2, withFault(fault.Config{
		DropProb: 0.001, RequestTimeoutNs: 200_000,
	}))
	c := w.Comm()
	var recovered interface{}
	w.Spawn(0, "receiver", func(th *Thread) {
		defer func() { recovered = recover() }()
		th.Wait(th.Irecv(c, 1, 9))
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	msg, ok := recovered.(string)
	if !ok || !strings.Contains(msg, "MPI_ERR_TIMEOUT") {
		t.Fatalf("MPI_ERRORS_ARE_FATAL must panic with the code, got %v", recovered)
	}
}

func TestRetryExhaustedSurfaces(t *testing.T) {
	// DropProb 1 destroys every wire packet; the rendezvous RTS can never
	// get through, so the transport gives up after MaxRetries and fails
	// the send.
	w := testWorld(t, 2, withFault(fault.Config{
		DropProb: 1, MaxRetries: 3, RTONs: 10_000,
	}))
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	big := w.Cfg.Cost.EagerThreshold * 4
	var waitErr error
	w.Spawn(0, "sender", func(th *Thread) {
		waitErr = th.Wait(th.Isend(c, 1, 1, big, "doomed"))
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var merr *Error
	if !errors.As(waitErr, &merr) || merr.Code != ErrRetryExhausted {
		t.Fatalf("want MPI_ERR_RETRY_EXHAUSTED, got %v", waitErr)
	}
	if w.NetStats().GiveUps == 0 {
		t.Fatalf("give-up not counted: %v", w.NetStats())
	}
}

func TestWaitAfterFreeIsErrRequest(t *testing.T) {
	w := testWorld(t, 2, withFault(fault.Config{DropProb: 0.001}))
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	var second error
	w.Spawn(0, "sender", func(th *Thread) {
		r := th.Isend(c, 1, 7, 64, "x")
		th.Wait(r) // completes and frees
		second = th.Wait(r)
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		th.Recv(c, 0, 7)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var merr *Error
	if !errors.As(second, &merr) || merr.Code != ErrRequest {
		t.Fatalf("want MPI_ERR_REQUEST on double wait, got %v", second)
	}
}

func TestIrecvNTruncationPostedPath(t *testing.T) {
	w := testWorld(t, 2)
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	var waitErr error
	w.Spawn(1, "receiver", func(th *Thread) {
		r := th.IrecvN(c, 0, 7, 16, nil) // buffer smaller than the message
		waitErr = th.Wait(r)
	})
	w.Spawn(0, "sender", func(th *Thread) {
		th.S.Sleep(50_000) // let the receive post first
		th.Send(c, 1, 7, 64, "wide")
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var merr *Error
	if !errors.As(waitErr, &merr) || merr.Code != ErrTruncate {
		t.Fatalf("want MPI_ERR_TRUNCATE, got %v", waitErr)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
}

func TestIrecvNTruncationUnexpectedPath(t *testing.T) {
	w := testWorld(t, 2)
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	var waitErr error
	w.Spawn(0, "sender", func(th *Thread) {
		th.Send(c, 1, 7, 64, "wide")
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		th.S.Sleep(200_000) // let the message land in the unexpected queue
		r := th.IrecvN(c, 0, 7, 16, nil)
		waitErr = th.Wait(r)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var merr *Error
	if !errors.As(waitErr, &merr) || merr.Code != ErrTruncate {
		t.Fatalf("want MPI_ERR_TRUNCATE, got %v", waitErr)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
}

func TestIrecvNTruncatedRendezvousDrainsSender(t *testing.T) {
	// Truncation on a rendezvous match must not wedge the sender: the CTS
	// still goes out, the data drains, only the receive errors.
	w := testWorld(t, 2)
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	big := w.Cfg.Cost.EagerThreshold * 4
	var sendErr, recvErr error
	w.Spawn(0, "sender", func(th *Thread) {
		sendErr = th.Wait(th.Isend(c, 1, 1, big, "bulk"))
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		recvErr = th.Wait(th.IrecvN(c, 0, 1, 16, nil))
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if sendErr != nil {
		t.Fatalf("sender must complete cleanly, got %v", sendErr)
	}
	var merr *Error
	if !errors.As(recvErr, &merr) || merr.Code != ErrTruncate {
		t.Fatalf("want MPI_ERR_TRUNCATE on the receive, got %v", recvErr)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
}

func TestCommErrhandlerOverridesWorld(t *testing.T) {
	// World stays fatal; the comm opts into ErrorsReturn — requests on it
	// must return instead of panicking.
	w := testWorld(t, 2, withFault(fault.Config{
		DropProb: 0.001, RequestTimeoutNs: 200_000,
	}))
	c := w.Comm()
	c.SetErrhandler(ErrorsReturn)
	var waitErr error
	w.Spawn(0, "receiver", func(th *Thread) {
		waitErr = th.Wait(th.Irecv(c, 1, 9))
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var merr *Error
	if !errors.As(waitErr, &merr) || merr.Code != ErrTimeout {
		t.Fatalf("comm-level MPI_ERRORS_RETURN ignored: %v", waitErr)
	}
}

func TestCommInheritsWorldErrhandler(t *testing.T) {
	// A comm that never set a handler follows the world's ErrorsReturn.
	w := testWorld(t, 2, withFault(fault.Config{
		DropProb: 0.001, RequestTimeoutNs: 200_000,
	}))
	w.SetErrhandler(ErrorsReturn)
	var waitErr error
	w.Spawn(0, "receiver", func(th *Thread) {
		c := w.Comm()
		waitErr = th.Wait(th.Irecv(c, 1, 9))
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var merr *Error
	if !errors.As(waitErr, &merr) || merr.Code != ErrTimeout {
		t.Fatalf("world handler not inherited: %v", waitErr)
	}
}

func TestProgressWatchdogReportsStall(t *testing.T) {
	// An unmatched receive with no request deadline: nothing ever
	// completes, so the watchdog must stop the run and name the dangling
	// state.
	w := testWorld(t, 2, withFault(fault.Config{
		DropProb: 0.001, WatchdogNs: 500_000,
	}))
	c := w.Comm()
	w.Spawn(0, "receiver", func(th *Thread) {
		th.Wait(th.Irecv(c, 1, 9))
	})
	err := w.Run()
	if err == nil {
		t.Fatal("stalled run must return the watchdog error")
	}
	if !strings.Contains(err.Error(), "progress watchdog") {
		t.Fatalf("unexpected error: %v", err)
	}
	if !strings.Contains(err.Error(), "outstanding=1") {
		t.Fatalf("report must show the dangling request: %v", err)
	}
	if w.NetStats().WatchdogStalls != 1 {
		t.Fatalf("stall not counted: %v", w.NetStats())
	}
}

func TestPreemptionStallsSlowTheRun(t *testing.T) {
	base := runPingStream(t, 20, withFault(fault.Config{PreemptProb: 0.0000001}))
	slow := runPingStream(t, 20, withFault(fault.Config{PreemptProb: 0.5, PreemptNs: 50_000}))
	if slow.Eng.Now() <= base.Eng.Now() {
		t.Fatalf("lock-holder preemption did not slow the run: %d vs %d",
			slow.Eng.Now(), base.Eng.Now())
	}
	if slow.FaultPlane().Stats().Preempts == 0 {
		t.Fatal("no preemptions injected")
	}
}

func TestWaitallSurfacesFirstError(t *testing.T) {
	w := testWorld(t, 2, withFault(fault.Config{
		DropProb: 0.001, RequestTimeoutNs: 200_000,
	}))
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	var waitErr error
	w.Spawn(0, "mixed", func(th *Thread) {
		good := th.Isend(c, 1, 7, 64, "ok")
		bad := th.Irecv(c, 1, 9) // never matched -> times out
		waitErr = th.Waitall([]*Request{good, bad})
	})
	w.Spawn(1, "peer", func(th *Thread) {
		th.Recv(c, 0, 7)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var merr *Error
	if !errors.As(waitErr, &merr) || merr.Code != ErrTimeout {
		t.Fatalf("Waitall must surface the timeout, got %v", waitErr)
	}
}

func TestTestSetsErrOnFailedRequest(t *testing.T) {
	w := testWorld(t, 2, withFault(fault.Config{
		DropProb: 0.001, RequestTimeoutNs: 200_000,
	}))
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	var got error
	w.Spawn(0, "poller", func(th *Thread) {
		r := th.Irecv(c, 1, 9)
		for {
			done, err := th.Test(r)
			if done {
				if err != r.Err() {
					t.Errorf("Test returned %v, Request.Err %v", err, r.Err())
				}
				break
			}
			th.S.Sleep(10_000)
		}
		got = r.Err()
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var merr *Error
	if !errors.As(got, &merr) || merr.Code != ErrTimeout {
		t.Fatalf("Request.Err after Test: %v", got)
	}
}

func TestFaultScenariosAcrossLocks(t *testing.T) {
	// The reliable transport must hold its invariants under every lock
	// arbitration the paper studies.
	for _, k := range []simlock.Kind{
		simlock.KindMutex, simlock.KindTicket, simlock.KindPriority, simlock.KindMCS,
	} {
		k := k
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			runPingStream(t, 25, withFault(fault.Config{
				DropProb: 0.1, DupProb: 0.1, DelayProb: 0.1,
			}), func(c *Config) { c.Lock = k })
		})
	}
}

// TestPartitionedRetransmitOnlyUnackedRanges: under a seeded drop schedule
// a partitioned epoch goes out as independently-sequenced segments of at
// most partSegSpan partitions, and only the segments the receiver never
// acknowledged are re-sent — partition-granularity recovery, not
// whole-epoch replay. NetStats.PartRetransmits counts re-sent partitions.
func TestPartitionedRetransmitOnlyUnackedRanges(t *testing.T) {
	w := testWorld(t, 2, withFault(fault.Config{DropProb: 0.25}))
	c := w.Comm()
	const parts = 64
	const epochs = 6
	w.Spawn(0, "sender", func(th *Thread) {
		ps := th.PsendInit(c, 1, 7, parts, 64, "chaos")
		for e := 0; e < epochs; e++ {
			th.Pstart(ps)
			if err := th.PreadyRange(ps, 0, parts); err != nil {
				t.Errorf("epoch %d: %v", e, err)
			}
			if err := th.Pwait(ps); err != nil {
				t.Errorf("epoch %d Pwait: %v", e, err)
			}
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		pr := th.PrecvInit(c, 0, 7, parts, 64)
		for e := 0; e < epochs; e++ {
			th.Pstart(pr)
			if err := th.Pwait(pr); err != nil {
				t.Errorf("epoch %d Pwait(recv): %v", e, err)
			}
			if pr.Data() != "chaos" {
				t.Errorf("epoch %d: payload %v", e, pr.Data())
			}
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	s := w.NetStats()
	if s.Fault.Dropped == 0 {
		t.Fatalf("scenario injected no drops: %v", s)
	}
	if s.PartRetransmits == 0 {
		t.Fatalf("dropped segments survived without partition retransmits: %+v", s)
	}
	const total = parts * epochs
	if s.PartRetransmits >= total {
		t.Fatalf("retransmitted %d partitions of %d sent: whole-epoch replay, not range-granular", s.PartRetransmits, total)
	}
	if s.PartRetransmits%partSegSpan != 0 {
		t.Fatalf("retransmitted %d partitions: not a multiple of the %d-partition segment span", s.PartRetransmits, partSegSpan)
	}
	if s.GiveUps != 0 || s.RequestFailures != 0 {
		t.Fatalf("unexpected failures: %v", s)
	}
	if ps := w.PartStats(); ps.PartRetransmits != s.PartRetransmits {
		t.Fatalf("PartStats (%d) and NetStats (%d) disagree on retransmitted partitions", ps.PartRetransmits, s.PartRetransmits)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
}
