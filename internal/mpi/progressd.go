package mpi

// This file defines ProgressMode, the one knob that selects who drives
// the progress engine. Its two polling shapes — the paper's poll-from-Wait
// loop and selective wake-up, which parks a poller after an empty poll
// (progressYield, progress.go) — keep completion on the application
// threads. This file implements the two modes that move it off them, the
// remedy the paper could not run (§9 future work; MPIX continuations and
// strong-progress designs in later MPICH work):
//
//   - Strong progress (ProgressStrong): a dedicated progress daemon
//     simthread per VCI shard drives that shard's transport and matching
//     queues, parking on the proc's activity queue while its completion
//     queue is empty and woken by arrival events. Every arrival wakes
//     the whole queue, so most daemon wakes find their own shard empty;
//     the daemon parks with WaitUntil, and the engine re-queues such a
//     daemon without switching into it (a quiet wake). Application threads
//     blocked in any wait call (Wait, Waitall, Waitany, Waitsome: the
//     wait engine, wait.go) park instead of iterating the progress loop,
//     so they never acquire the critical section at low (progress) class
//     at all.
//
//   - Continuations (ProgressContinuation): strong progress plus
//     completion-time callbacks. Request.OnComplete registers a function
//     the progress engine runs when the request completes; a
//     CompletionQueue turns a Waitall over n requests into one batched
//     enqueue and a drain of n completion events, with the runtime
//     freeing each request at dispatch time inside the critical section
//     it already holds. A queue's owner parks with WaitUntil too, so a
//     wake that delivered nothing to its queue is quiet.

import (
	"fmt"

	"mpicontend/internal/sim"
	"mpicontend/internal/simlock"
)

// ProgressMode selects who drives the progress engine.
type ProgressMode int

const (
	// ProgressPolling is the paper's shape: blocked application threads
	// iterate the progress loop from Wait, re-acquiring their requests'
	// shard sections at low class around every poll. The default.
	ProgressPolling ProgressMode = iota
	// ProgressStrong runs a dedicated progress daemon per VCI shard;
	// application threads block without polling.
	ProgressStrong
	// ProgressContinuation is strong progress plus completion-time
	// callbacks (Request.OnComplete) and CompletionQueue draining;
	// Waitall becomes one batched enqueue plus a drain.
	ProgressContinuation
	// ProgressSelective is the paper's §9 future-work design: blocked
	// threads still drive progress from Wait, but after an empty poll
	// they park until an arrival or completion wakes them instead of
	// busy-spinning through the critical section. A polling mode: there
	// are no daemons and no completion-time dispatch.
	ProgressSelective
)

// String names the progress mode as used in figures and flags.
func (m ProgressMode) String() string {
	switch m {
	case ProgressPolling:
		return "polling"
	case ProgressStrong:
		return "strong"
	case ProgressContinuation:
		return "continuation"
	case ProgressSelective:
		return "selective"
	default:
		return fmt.Sprintf("ProgressMode(%d)", int(m))
	}
}

// eventDriven reports whether the mode runs progress daemons, so that
// completions wake parked waiters instead of being discovered by their
// own polling.
func (m ProgressMode) eventDriven() bool {
	return m == ProgressStrong || m == ProgressContinuation
}

func (w *World) eventDriven() bool { return w.Cfg.Progress.eventDriven() }

// startProgressDaemons spawns one progress daemon per (proc, VCI shard).
// Called lazily from World.Run so daemons bind to cores after the
// application threads, like MPICH progress threads joining a running job.
func (w *World) startProgressDaemons() {
	if w.progressd || !w.eventDriven() {
		return
	}
	w.progressd = true
	for _, p := range w.Procs {
		for v := range p.vcis {
			p, v := p, v
			w.spawn(p.Rank, "progressd", func(th *Thread) {
				th.S.SetDaemon()
				th.noBackoff = true
				progressDaemon(th, p, v)
			})
		}
	}
}

// progressDaemon is the strong-progress engine of one shard: while the
// shard's network completion queue is empty it parks on the proc's
// activity queue (arrivals, completions and failure events wake it); when
// events are queued it runs progress rounds under the shard's critical
// section at low class, paced by the progress-loop overhead — the engine
// timer that separates rounds. The emptiness check is adjacent to the
// park (no virtual-time gap), so no wake-up can be lost. The park lasts
// until the shard is Ready: a wake for another shard's arrival is
// re-queued by the engine and never runs this loop.
func progressDaemon(th *Thread, p *Proc, v int) {
	sh := p.vcis[v]
	cost := th.cost()
	for {
		th.checkCrashed()
		if sh.cq.len() == 0 {
			p.activity.WaitUntil(th.S, sh)
			continue
		}
		th.progressRound(v, simlock.Low, nil)
		th.S.Sleep(cost.ProgressLoopOverhead)
	}
}

// OnComplete registers fn as the request's continuation: the progress
// engine calls fn(r, r.Err()) exactly once, at completion time, from the
// completing context (a progress daemon or the issuing call), with the
// request's shard critical section held. The runtime then frees the
// request itself — a continuation request must not be passed to
// Wait/Test afterwards; fn observes its payload and error instead. If
// the request already completed, fn fires during this call. Callbacks
// must not make blocking MPI calls; their typical job is to hand the
// completion to application state (or a CompletionQueue does it for
// them).
func (r *Request) OnComplete(th *Thread, fn func(r *Request, err error)) {
	if fn == nil {
		panic("mpi: OnComplete with nil callback")
	}
	if !th.P.w.eventDriven() {
		// Polling mode has no completion-time dispatch context: a callback
		// registered on a pending request would never fire.
		panic("mpi: OnComplete requires ProgressStrong or ProgressContinuation")
	}
	tel := th.telStart()
	v := reqShard(r)
	th.stateBegin(v, simlock.High)
	if r.freed {
		th.stateEnd(v, simlock.High)
		panic("mpi: OnComplete on a freed request")
	}
	if r.onComplete != nil || r.cq != nil {
		th.stateEnd(v, simlock.High)
		panic("mpi: OnComplete registered twice")
	}
	r.onComplete = fn
	if r.complete {
		// Late registration: the completion already happened, so the
		// dispatch the progress engine would have done runs here, still
		// exactly once and still under the shard section.
		r.fire(th.S.Now())
	}
	th.stateEnd(v, simlock.High)
	th.telCall("OnComplete", tel)
}

// fire dispatches the registered continuation exactly once: the callback
// observes the completed request (payload, error code), then the runtime
// frees it and recycles provably-dead fault-free objects. Runs in engine
// or CS context, from markComplete or a late OnComplete registration.
// Errors reach the callback as the err argument — continuation delivery
// replaces the Wait-side error handler, so a failed request's code is
// always seen by fn before the object can be recycled (errored requests
// are never pooled, the PR-6 invariant).
func (r *Request) fire(at sim.Time) {
	fn := r.onComplete
	r.onComplete = nil
	fn(r, r.Err())
	r.free()
	r.p.recycle(r)
}

// CompletionQueue is the event-queue completion API of continuation mode:
// completed requests are delivered onto it by the progress engine and the
// owning thread drains them with Poll/WaitAny, paying the completion-
// object processing cost once per event instead of holding the critical
// section to poll. Delivered requests are already freed by the runtime;
// the drain side reads their payload and error, nothing more. A queue
// belongs to the thread that created it.
type CompletionQueue struct {
	th *Thread
	// done holds the delivered completions, oldest first from head. Like
	// a shard's pktQueue, it keeps its backing array: drains advance head
	// and rewind it when the queue empties, and a push into a full array
	// slides the undrained completions down once the drained prefix is at
	// least half of it.
	done []*Request
	head int
}

// NewCompletionQueue creates a completion queue owned by this thread.
func (th *Thread) NewCompletionQueue() *CompletionQueue {
	if !th.P.w.eventDriven() {
		panic("mpi: CompletionQueue requires ProgressStrong or ProgressContinuation")
	}
	return &CompletionQueue{th: th}
}

// Add registers the request for delivery onto the queue when it
// completes (immediately, if it already has). Like OnComplete, the
// runtime frees the request at delivery; it must not be waited on.
func (q *CompletionQueue) Add(r *Request) {
	th := q.th
	v := reqShard(r)
	th.stateBegin(v, simlock.High)
	q.addLocked(r, th.S.Now())
	th.stateEnd(v, simlock.High)
}

// addLocked registers one request; the caller holds r's shard section.
func (q *CompletionQueue) addLocked(r *Request, at sim.Time) {
	if r.freed {
		panic("mpi: CompletionQueue.Add on a freed request")
	}
	if r.onComplete != nil || r.cq != nil {
		panic("mpi: CompletionQueue.Add on a request with a continuation")
	}
	if r.complete {
		r.free()
		q.push(r, at)
		return
	}
	r.cq = q
}

// push appends a delivered completion and wakes the owner if it is
// parked. Runs in engine or CS context.
func (q *CompletionQueue) push(r *Request, at sim.Time) {
	if len(q.done) == cap(q.done) && q.head > 0 && 2*q.head >= len(q.done) {
		n := copy(q.done, q.done[q.head:])
		clear(q.done[n:])
		q.done, q.head = q.done[:n], 0
	}
	//simcheck:allow hotalloc completion-event buffer; bounded by the owner's outstanding requests and reused across drains
	q.done = append(q.done, r)
	p := q.th.P
	if w := p.w; w.tel != nil {
		w.tel.CQDepth(at, int64(q.Len()))
	}
	p.activity.WakeAll(at)
}

// Len returns the number of delivered, undrained completions.
func (q *CompletionQueue) Len() int { return len(q.done) - q.head }

// Poll drains one delivered completion, or returns nil if none is
// queued. Never blocks and never acquires the critical section.
func (q *CompletionQueue) Poll() *Request {
	if q.Len() == 0 {
		return nil
	}
	return q.take()
}

// WaitAny blocks until a completion is delivered, then drains it. The
// owner parks on the proc's activity queue until the queue is Ready;
// completions, failure events and crash unwinding all wake it.
func (q *CompletionQueue) WaitAny() *Request {
	th := q.th
	for q.Len() == 0 {
		th.checkCrashed()
		th.P.activity.WaitUntil(th.S, q)
	}
	return q.take()
}

// Ready is WaitAny's wake condition (sim.WaitQueue.WaitUntil): a
// completion was delivered, or the owner's proc crashed and the owner
// must unwind.
//
//simcheck:hotpath checked by the engine on every owner wake; stays allocation-free
func (q *CompletionQueue) Ready() bool { return q.Len() != 0 || q.th.P.crashed }

// take removes the oldest delivered completion, charging the completion-
// object processing cost (the drain side's analogue of Wait's
// RequestFreeWork; the free itself already ran at delivery).
func (q *CompletionQueue) take() *Request {
	r := q.done[q.head]
	q.done[q.head] = nil
	q.head++
	if q.head == len(q.done) {
		q.done, q.head = q.done[:0], 0
	}
	th := q.th
	th.S.Sleep(th.cost().RequestFreeWork)
	if w := th.P.w; w.tel != nil {
		w.tel.CQDepth(th.S.Now(), int64(q.Len()))
	}
	return r
}

// ensureCQ returns the thread's internal completion queue (continuation-
// mode Waitall drains through it; it is always empty between calls).
func (th *Thread) ensureCQ() *CompletionQueue {
	th.cq.th = th
	return &th.cq
}

// waitallCont is Waitall under continuations: register every active
// request of w on the thread's completion queue in one batched pass (one
// state section per involved shard), then drain exactly that many
// completion events. The progress daemons free each request at delivery,
// so the drain loop takes no locks at all — the per-request progress-loop
// re-acquisitions of the polling shape disappear entirely. The drain
// recycles what it takes under the pool rule of every other Waitall.
func (th *Thread) waitallCont(w *waiter) error {
	if w.n == 0 {
		return nil
	}
	tel := th.telStart()
	q := th.ensureCQ()
	mark := w.marks(len(th.P.vcis))
	for _, e := range w.list {
		mark[reqShard(e.r)] = true
	}
	for v, on := range mark {
		if !on {
			continue
		}
		th.stateBegin(v, simlock.High)
		for _, e := range w.list {
			if reqShard(e.r) == v {
				q.addLocked(e.r, th.S.Now())
			}
		}
		th.stateEnd(v, simlock.High)
	}
	var firstErr error
	for n := len(w.list); n > 0; n-- {
		r := q.WaitAny()
		if r.err != nil {
			// Continuation delivery replaces Wait's error-handler site:
			// raise through the communicator handler (panic under
			// MPI_ERRORS_ARE_FATAL), reporting the first error.
			if err := r.raise(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		// Waitall consumes its requests, so a provably dead one goes
		// back to its shard's pool here, on the drain side: the
		// completing context cannot tell this queue from a user's, whose
		// drained objects must stay readable.
		r.p.recycle(r)
	}
	th.telCall("Waitall", tel)
	return firstErr
}
