package mpi

// This file is the wait engine: the one completion path behind Wait,
// Waitall, Waitany, Waitsome, Test and Testall in every progress mode.
// Each public call is a thin wrapper naming which completed requests it
// takes and when it is done; the engine owns the check, the pre-check and
// the loop (waitRun), and Test and Testall are one high-class sweep of it
// without the loop. Every request a call reaps meets one rule (take): it
// is freed and its error runs through the handler; a provably dead request
// goes back to its shard's pool unless the caller's list still names it
// (Waitany, Waitsome). A nil request is MPI_REQUEST_NULL everywhere.
// Continuation-mode Waitall keeps its batched CompletionQueue registration
// (waitallCont, progressd.go), a different mechanism rather than another
// copy of this loop.

import (
	"slices"

	"mpicontend/internal/simlock"
)

// waitMode says which completed requests a wait-family call takes and
// when it is done.
type waitMode int

const (
	waitOne  waitMode = iota // Wait (and Test): its one request
	waitAll                  // Waitall (and Testall): every request
	waitAny                  // Waitany: the first completed request
	waitSome                 // Waitsome: every completed request, at least one
)

// waitEntry is one active request of a wait call with its index in the
// caller's list.
type waitEntry struct {
	i int
	r *Request
}

// waiter is a thread's wait-engine state. Its slices are per-thread
// scratch, sized by the longest request list the thread has waited on and
// reused by every later call; wait calls do not nest on one thread.
type waiter struct {
	mode waitMode
	// list holds the call's active requests (non-nil, not freed): list[:n]
	// are still pending and list[n:] were taken, most recent first. Taking
	// list[k] swaps it with list[n-1], so the pending order is the one a
	// swap-with-last removal leaves. Its capacity is twice its length:
	// sweepDone keeps its peek in the spare half.
	list []waitEntry
	n    int
	// one backs list for one-request calls (Wait, Test), so a thread
	// that never waits on a list allocates none.
	one [2]waitEntry
	// shards marks the shards a progress sweep polls or sweepDone locks;
	// allocated at first use (see marks).
	shards shardSet
	// err is the first error a take raised (under MPI_ERRORS_RETURN).
	err error
}

// waitBegin resets the thread's waiter for a call in mode over rs; nil and
// already-freed requests are inactive and left out.
func (th *Thread) waitBegin(mode waitMode, rs []*Request) *waiter {
	w := &th.wait
	if cap(w.list) < 2*len(rs) {
		w.grow(len(rs))
	}
	w.mode, w.err = mode, nil
	w.list = w.list[:0]
	for i, r := range rs {
		if r != nil && !r.freed {
			w.list = w.list[:len(w.list)+1]
			w.list[len(w.list)-1] = waitEntry{i, r}
		}
	}
	w.n = len(w.list)
	return w
}

// waitBeginOne resets the thread's waiter for Wait or Test on r, which
// the caller has checked is active.
func (th *Thread) waitBeginOne(r *Request) *waiter {
	w := &th.wait
	if cap(w.list) < 2 {
		w.grow(1)
	}
	w.mode, w.err, w.n = waitOne, nil, 1
	w.list = w.list[:1]
	w.list[0] = waitEntry{0, r}
	return w
}

// grow gives list room for n requests and sweepDone's peek of them.
func (w *waiter) grow(n int) {
	if 2*n <= len(w.one) {
		w.list = w.one[:0]
		return
	}
	//simcheck:allow hotalloc per-thread scratch; regrown only for a list longer than any the thread waited on before
	w.list = make([]waitEntry, 0, 2*n)
}

// marks returns the thread's shard marks for nv shards, cleared.
func (w *waiter) marks(nv int) shardSet {
	if w.shards == nil {
		//simcheck:allow hotalloc per-thread scratch; allocated once, at the thread's first sweep
		w.shards = make(shardSet, nv)
	}
	clear(w.shards)
	return w.shards
}

// waitRun is the wait loop. A call with no active request returns at once
// (MPI_UNDEFINED for Waitany/Waitsome, success for Waitall). Under strong
// progress and continuations it checks, then parks until a completion
// event; the completion-sequence snapshot closes the window between the
// check and the park, since any completion in between bumps the sequence
// and the waiter re-checks instead of parking. Under polling it checks
// once, then runs low-class progress sweeps separated by progressYield.
func (th *Thread) waitRun(w *waiter, name string) {
	if w.n == 0 {
		return
	}
	p := th.P
	tel := th.telStart()
	if p.w.eventDriven() {
		for {
			th.checkCrashed()
			seq := p.completeSeq
			th.waitCheck(w)
			if w.done() {
				break
			}
			if p.completeSeq == seq {
				p.activity.Wait(th.S)
			}
		}
	} else {
		th.waitCheck(w)
		if !w.done() {
			th.pollBackoff = 0
			for !th.waitSweep(w, simlock.Low) {
				th.progressYield()
			}
		}
	}
	th.telCall(name, tel)
}

// done reports whether the call has taken what it waits for.
func (w *waiter) done() bool {
	if w.mode == waitAll {
		return w.n == 0
	}
	return w.n < len(w.list)
}

// full reports whether the call must take nothing more (Waitany took one).
func (w *waiter) full() bool { return w.mode == waitAny && w.n < len(w.list) }

// keeps reports whether the caller's list outlives the call: Waitany and
// Waitsome are called again on the same list until it is drained, so what
// they take must stay a freed request there, never a pooled object that a
// later Isend hands out as active again.
func (w *waiter) keeps() bool { return w.mode == waitAny || w.mode == waitSome }

// waitCheck is the look before polling or parking. Wait locks its
// request's shard and then checks, every time. N-dependent rule for the
// list calls: a one-shard polling proc enters shard 0 before looking —
// the paper's lock-then-check, one high-class acquisition per call whether
// or not anything completed — and reaps; a sharded or event-driven proc
// peeks and locks only the shards holding completions (sweepDone), so
// waiters on different shards never meet on one lock.
func (th *Thread) waitCheck(w *waiter) {
	v := 0
	if w.mode == waitOne {
		v = reqShard(w.list[0].r)
	} else if th.P.sharded || th.P.w.eventDriven() {
		th.sweepDone(w)
		return
	}
	th.stateBegin(v, simlock.High)
	th.reap()
	th.stateEnd(v, simlock.High)
}

// waitSweep runs one progress round at class cl, with reap, on each shard
// a pending request can complete on (shard 0 when nothing is pending), and
// reports whether the call is done; it stops at the round that finishes
// it. Wait keeps polling its request's shards until it takes it; the list
// calls leave out requests that already completed, which the next round's
// reap takes wherever it runs.
func (th *Thread) waitSweep(w *waiter, cl simlock.Class) bool {
	if w.mode == waitOne && w.list[0].r.vci >= 0 {
		// The common case, spelled out for speed: a bound request's one shard.
		th.progressRound(w.list[0].r.vci, cl, th.reap)
		return w.done()
	}
	s := w.marks(len(th.P.vcis))
	none := true
	for _, e := range w.list[:w.n] {
		if e.r.complete && w.mode != waitOne {
			continue
		}
		s.add(e.r)
		none = false
	}
	if none {
		s[0] = true
	}
	for v, on := range s {
		if !on {
			continue
		}
		th.progressRound(v, cl, th.reap)
		if w.done() {
			return true
		}
	}
	return false
}

// reap takes the completed pending requests, in pending order (only the
// first under Waitany). The caller holds the section guarding them.
func (th *Thread) reap() {
	w := &th.wait
	for k := 0; k < w.n; {
		if !w.list[k].r.complete {
			k++
			continue
		}
		th.take(k) // list[k] now holds what was the last pending entry
		if w.full() {
			return
		}
	}
}

// sweepDone visits the already-completed pending requests shard by shard:
// each shard holding at least one opens its own state section and takes
// its completed requests in the order they were peeked (before any
// section is opened; the peek lives in the list's spare half). A fixed
// single-shard sweep here would funnel every wait-family caller through
// one lock and re-serialize exactly the independence sharding buys;
// request state lives on the request's own VCI, so that shard's section is
// the one that guards its reaping. When nothing has completed, no section
// is opened at all. The polling sweep (waitSweep) does not keep that rule
// for the list calls: a request that completed before a Waitall or
// Testall round is reaped by whichever shard's round runs, so on a sharded
// proc its free is charged to that shard's hold and it is pooled back onto
// its own shard from outside that shard's section. Simthreads switch only
// at blocking points, so the state stays consistent; only the lock model
// is off for that path.
func (th *Thread) sweepDone(w *waiter) {
	s := w.marks(len(th.P.vcis))
	peek := w.list[len(w.list):len(w.list)]
	for _, e := range w.list[:w.n] {
		if e.r.complete && !e.r.freed {
			s[reqShard(e.r)] = true
			peek = peek[:len(peek)+1]
			peek[len(peek)-1] = e
		}
	}
	if len(peek) == 0 {
		return
	}
	for v, on := range s {
		if !on {
			continue
		}
		th.stateBegin(v, simlock.High)
		for _, p := range peek {
			r := p.r
			if reqShard(r) != v || !r.complete || r.freed || w.full() {
				continue
			}
			for k, e := range w.list[:w.n] {
				if e.r == r {
					th.take(k)
					break
				}
			}
		}
		th.stateEnd(v, simlock.High)
	}
}

// take frees pending request list[k], moves it to the taken tail and runs
// its error through the handler (a panic under MPI_ERRORS_ARE_FATAL),
// keeping the first error in w.err. This is the one rule for every reaped
// request, whichever call reaps it. A provably dead request then returns
// to its shard's pool, unless the call keeps the caller's list (keeps).
// Errored requests are never pooled, so under MPI_ERRORS_RETURN their Err
// stays readable after the call.
func (th *Thread) take(k int) {
	w := &th.wait
	w.n--
	w.list[k], w.list[w.n] = w.list[w.n], w.list[k]
	r := w.list[w.n].r
	th.S.Sleep(th.cost().RequestFreeWork)
	r.free()
	if err := r.raise(); err != nil && w.err == nil {
		w.err = err
	}
	if !w.keeps() {
		r.p.recycle(r)
	}
}

// Wait blocks until the request completes, then frees it. Under polling
// it iterates the progress loop on the shard(s) the request can complete
// on, yielding the critical section between polls (low priority under the
// priority lock); under strong progress and continuations it parks. It
// returns the request's error, if any, after the configured error handler
// runs (MPI_ERRORS_ARE_FATAL, the default, panics instead of returning).
// A nil request (MPI_REQUEST_NULL) returns nil at once. Waiting on a
// freed request — including one whose continuation already consumed it —
// is MPI_ERR_REQUEST.
func (th *Thread) Wait(r *Request) error {
	if r == nil {
		return nil
	}
	if r.freed {
		return r.raiseAs(ErrRequest)
	}
	w := th.waitBeginOne(r)
	th.waitRun(w, "Wait")
	return w.err
}

// Waitall blocks until every request completes. Requests are freed as their
// completion is detected, so a starving caller leaves its completed
// requests dangling — the §4.4 effect. It returns the first request error
// encountered (after the error handler runs); the remaining requests are
// still waited for and freed. Nil and freed requests are ignored.
//
//simcheck:hotpath every blocking list wait; the engine runs on per-thread scratch
func (th *Thread) Waitall(rs []*Request) error {
	w := th.waitBegin(waitAll, rs)
	if th.P.w.Cfg.Progress == ProgressContinuation {
		return th.waitallCont(w)
	}
	th.waitRun(w, "Waitall")
	return w.err
}

// Waitany blocks until one of the requests completes, frees it, and
// returns its index. It returns -1 (MPI_UNDEFINED) at once when no request
// is active (every entry nil or freed, or the list empty). A failed
// request raises through the error handler; under MPI_ERRORS_RETURN its
// error is read through Request.Err. The request it takes is freed but not
// pooled, so rs can be passed in again until it is drained.
func (th *Thread) Waitany(rs []*Request) int {
	w := th.waitBegin(waitAny, rs)
	th.waitRun(w, "Waitany")
	if w.n == len(w.list) {
		return -1
	}
	return w.list[w.n].i
}

// Waitsome blocks until at least one request completes, frees all the
// completed ones, and returns their indices in the order they were taken.
// It returns nil (MPI_UNDEFINED) at once when no request is active.
// Failed requests raise, and taken requests stay out of the pool, as in
// Waitany.
func (th *Thread) Waitsome(rs []*Request) []int {
	w := th.waitBegin(waitSome, rs)
	th.waitRun(w, "Waitsome")
	var done []int
	for k := len(w.list) - 1; k >= w.n; k-- {
		done = append(done, w.list[k].i)
	}
	return done
}

// Test polls the runtime once and reports whether the request completed;
// if so, the request is freed. Like MPI_Test it returns a flag and an
// error: the request's error, once a failed request completes, after the
// error handler ran (MPI_ERRORS_ARE_FATAL, the default, panics instead).
// Test is one high-class sweep of the wait engine without its loop, so
// under the priority lock it always runs at high priority — the paper's
// explanation for priority ≈ ticket in the Graph500/stencil runs. A nil
// request (MPI_REQUEST_NULL) reports true at once. Testing a freed
// request is MPI_ERR_REQUEST; under MPI_ERRORS_RETURN it reports true
// with that error, since an inactive request has nothing left to
// complete.
func (th *Thread) Test(r *Request) (bool, error) {
	if r == nil {
		return true, nil
	}
	if r.freed {
		return true, r.raiseAs(ErrRequest)
	}
	tel := th.telStart()
	w := th.waitBeginOne(r)
	done := th.waitSweep(w, simlock.High)
	th.telCall("Test", tel)
	return done, w.err
}

// Testall polls once, frees the completed requests and returns the still
// pending ones in rs order, nil and freed entries dropped; the result
// reuses rs's backing array. Testall is one high-class sweep of the wait
// engine in Waitall's mode, as Test is one in Wait's: each shard a pending
// request can complete on gets one progress round with the reap inside
// the same hold, and a list with nothing pending still gets one round on
// shard 0 (graph500 drains already-empty lists, and the fig10 lock
// sequence counts that round). On a sharded proc a request that already
// completed adds no round of its own: it is reaped by whichever round runs
// next, as in Waitall's sweep. Failed requests raise as in Waitany.
func (th *Thread) Testall(rs []*Request) []*Request {
	tel := th.telStart()
	w := th.waitBegin(waitAll, rs)
	th.waitSweep(w, simlock.High)
	th.telCall("Testall", tel)
	pending := w.list[:w.n]
	slices.SortFunc(pending, func(a, b waitEntry) int { return a.i - b.i })
	out := rs[:0]
	for _, e := range pending {
		out = append(out, e.r)
	}
	return out
}
