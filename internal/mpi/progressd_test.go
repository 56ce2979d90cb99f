package mpi

import (
	"fmt"
	"slices"
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
// CompletionQueue enqueue + drain) delivers every payload, on both the
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

// TestOnCompleteFires: a continuation registered on a pending receive runs
// from the progress engine with the delivered payload, and the runtime
// frees the request at dispatch (a later Wait is a usage error).
func TestOnCompleteFires(t *testing.T) {
	w := testWorld(t, 2, withProgress(ProgressContinuation))
	c := w.Comm()
	fired := 0
	var data interface{}
	w.Spawn(0, "sender", func(th *Thread) {
		th.Send(c, 1, 3, 64, "cb-payload")
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		var slot interface{}
		r := th.IrecvN(c, 0, 3, -1, &slot)
		r.OnComplete(th, func(r *Request, err error) {
			fired++
			if err != nil {
				t.Errorf("continuation error: %v", err)
			}
			data = slot
		})
		// Nothing to wait on: the receiver parks in a dummy exchange so the
		// world keeps running until the continuation fires.
		th.Send(c, 0, 9, 16, nil)
	})
	w.Spawn(0, "flusher", func(th *Thread) {
		th.Recv(c, 1, 9)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("continuation fired %d times, want 1", fired)
	}
	if data != "cb-payload" {
		t.Fatalf("continuation saw %v", data)
	}
	if w.DanglingNow() != 0 {
		t.Fatalf("dangling requests leaked: %d", w.DanglingNow())
	}
}

// TestOnCompleteAlreadyCompleted is the satellite regression: a
// continuation registered on an already-completed request fires exactly
// once, during the OnComplete call itself, and its ordering against Wait
// returns is deterministic across identically-seeded runs.
func TestOnCompleteAlreadyCompleted(t *testing.T) {
	run := func() (fired int, order []string) {
		w := testWorld(t, 2, withProgress(ProgressContinuation))
		c := w.Comm()
		w.Spawn(0, "sender", func(th *Thread) {
			th.Send(c, 1, 1, 64, "first")
			th.Send(c, 1, 2, 64, "second")
		})
		w.Spawn(1, "receiver", func(th *Thread) {
			r1 := th.Irecv(c, 0, 1)
			r2 := th.Irecv(c, 0, 2)
			// Waiting on r2 guarantees r1 completed too (same flow, FIFO
			// order), so the registration below is on a completed request.
			if err := th.Wait(r2); err != nil {
				t.Errorf("wait r2: %v", err)
			}
			order = append(order, "wait-r2")
			if !r1.Complete() {
				t.Error("r1 should have completed before r2's Wait returned")
			}
			r1.OnComplete(th, func(r *Request, err error) {
				fired++
				order = append(order, "continuation-r1")
			})
			order = append(order, "after-register")
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return fired, order
	}
	fired, order := run()
	if fired != 1 {
		t.Fatalf("late continuation fired %d times, want exactly 1", fired)
	}
	want := []string{"wait-r2", "continuation-r1", "after-register"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	fired2, order2 := run()
	if fired2 != fired || fmt.Sprint(order2) != fmt.Sprint(order) {
		t.Fatalf("nondeterministic continuation ordering: %v vs %v", order, order2)
	}
}

// TestOnCompleteErrorBeforeRecycle extends the PR-6 pool regression
// (TestFailedRequestIsNotPooled): a continuation on a poolable request
// that fails must observe the error code at dispatch, and the errored
// object must not be recycled — while a healthy fired request is.
func TestOnCompleteErrorBeforeRecycle(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("vcis=%d", n), func(t *testing.T) {
			testOnCompleteErrorBeforeRecycle(t, n)
		})
	}
}

// testOnCompleteErrorBeforeRecycle runs the regression on the last shard
// of an n-shard proc, asserting on that shard's pool.
func testOnCompleteErrorBeforeRecycle(t *testing.T, n int) {
	w := testWorld(t, 2, withProgress(ProgressContinuation), withVCIs(n, vci.PerTagHash))
	w.SetErrhandler(ErrorsReturn)
	p := w.Procs[0]
	v := n - 1
	sh := p.vcis[v]

	for _, code := range []Errcode{ErrProcFailed, ErrTimeout} {
		bad := p.allocReq(v)
		*bad = Request{p: p, kind: SendReq, dst: 1, poolable: true, vci: v}
		p.outstanding++
		var sawErr error
		fired := 0
		bad.onComplete = func(r *Request, err error) {
			fired++
			sawErr = err
			if r.freed {
				t.Errorf("%v: continuation ran after free", code)
			}
		}
		bad.fail(code, 0)
		if fired != 1 {
			t.Fatalf("%v: continuation fired %d times, want 1", code, fired)
		}
		e, ok := sawErr.(*Error)
		if !ok || e.Code != code {
			t.Fatalf("continuation saw %v, want code %v", sawErr, code)
		}
		if !bad.freed {
			t.Fatalf("%v: fired request was not freed", code)
		}
		if sh.reqFree != nil {
			t.Fatalf("%v: failed request was recycled into the pool", code)
		}
	}

	good := p.allocReq(v)
	*good = Request{p: p, kind: SendReq, dst: 1, poolable: true, vci: v}
	p.outstanding++
	fired := 0
	good.onComplete = func(r *Request, err error) {
		fired++
		if err != nil {
			t.Errorf("healthy continuation saw %v", err)
		}
	}
	good.markComplete(0)
	if fired != 1 {
		t.Fatalf("healthy continuation fired %d times, want 1", fired)
	}
	if sh.reqFree != good {
		t.Fatal("healthy fired request was not recycled into its shard's pool")
	}
}

// TestCompletionQueuePollWaitAny drains a mixed already-complete /
// pending batch through the public CompletionQueue API.
func TestCompletionQueuePollWaitAny(t *testing.T) {
	const msgs = 4
	w := testWorld(t, 2, withProgress(ProgressContinuation))
	c := w.Comm()
	drained := 0
	w.Spawn(0, "sender", func(th *Thread) {
		for tag := 0; tag < msgs; tag++ {
			th.Send(c, 1, tag, 64, tag)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		q := th.NewCompletionQueue()
		if q.Poll() != nil {
			t.Error("Poll on empty queue must return nil")
		}
		rs := make([]*Request, 0, msgs)
		bufs := make([]interface{}, msgs)
		for tag := 0; tag < msgs; tag++ {
			rs = append(rs, th.IrecvN(c, 0, tag, -1, &bufs[tag]))
		}
		for _, r := range rs {
			q.Add(r)
		}
		for drained < msgs {
			r := q.WaitAny()
			if tag := slices.Index(rs, r); bufs[tag] != tag {
				t.Errorf("drained receive %d delivered %v into its slot", tag, bufs[tag])
			}
			drained++
		}
		if q.Len() != 0 || q.Poll() != nil {
			t.Error("queue should be empty after draining")
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if drained != msgs {
		t.Fatalf("drained %d completions, want %d", drained, msgs)
	}
	if w.DanglingNow() != 0 {
		t.Fatalf("dangling requests leaked: %d", w.DanglingNow())
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

// TestCompletionCallbacksNeedDaemons: OnComplete and NewCompletionQueue
// panic in the polling modes, selective wake-up included, which have no
// completion-time dispatch context.
func TestCompletionCallbacksNeedDaemons(t *testing.T) {
	panics := func(fn func()) (ok bool) {
		defer func() { ok = recover() != nil }()
		fn()
		return false
	}
	for _, m := range []ProgressMode{ProgressPolling, ProgressSelective, ProgressStrong, ProgressContinuation} {
		want := m == ProgressPolling || m == ProgressSelective
		w := testWorld(t, 2, withProgress(m))
		c := w.Comm()
		var cqPanics, onCompletePanics bool
		w.Spawn(0, "sender", func(th *Thread) {
			if err := th.Wait(th.Isend(c, 1, 0, 8, nil)); err != nil {
				t.Errorf("%v: send: %v", m, err)
			}
		})
		w.Spawn(1, "receiver", func(th *Thread) {
			cqPanics = panics(func() { th.NewCompletionQueue() })
			r := th.Irecv(c, 0, 0)
			onCompletePanics = panics(func() { r.OnComplete(th, func(*Request, error) {}) })
			if onCompletePanics {
				if err := th.Wait(r); err != nil {
					t.Errorf("%v: recv: %v", m, err)
				}
			}
		})
		if err := w.Run(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if cqPanics != want || onCompletePanics != want {
			t.Errorf("%v: NewCompletionQueue panicked=%v, OnComplete panicked=%v; want %v",
				m, cqPanics, onCompletePanics, want)
		}
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
