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
//     blocked in a wait call (Wait or Waitall: the wait engine, wait.go)
//     park instead of iterating the progress loop, so they never acquire
//     the critical section at low (progress) class at all.
//
//   - Continuations (ProgressContinuation): strong progress plus
//     completion-time queue delivery. Waitall over n requests becomes one
//     batched enqueue onto the thread's completion queue and a drain of n
//     completion events, with the runtime freeing each request at
//     delivery time inside the critical section it already holds. The
//     queue's owner parks with WaitUntil too, so a wake that delivered
//     nothing to its queue is quiet.

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
	// queue delivery: Waitall becomes one batched enqueue onto the
	// thread's completion queue plus a drain.
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

// completionQueue is the drain of continuation-mode Waitall: completed
// requests are delivered onto it by the progress engine and the owning
// thread drains them with waitAny, paying the completion-object processing
// cost once per event instead of holding the critical section to poll.
// Delivered requests are already freed by the runtime; the drain side
// reads their error and recycles them. Each thread owns one (Thread.cq).
type completionQueue struct {
	th *Thread
	// done holds the delivered completions, oldest first from head. Like
	// a shard's pktQueue, it keeps its backing array: drains advance head
	// and rewind it when the queue empties, and a push into a full array
	// slides the undrained completions down once the drained prefix is at
	// least half of it.
	done []*Request
	head int
}

// addLocked registers one request for delivery when it completes
// (immediately, if it already has); the caller holds r's shard section.
func (q *completionQueue) addLocked(r *Request, at sim.Time) {
	if r.freed {
		panic("mpi: completion-queue registration of a freed request")
	}
	if r.cq != nil {
		panic("mpi: request registered on a completion queue twice")
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
func (q *completionQueue) push(r *Request, at sim.Time) {
	if len(q.done) == cap(q.done) && q.head > 0 && 2*q.head >= len(q.done) {
		n := copy(q.done, q.done[q.head:])
		clear(q.done[n:])
		q.done, q.head = q.done[:n], 0
	}
	//simcheck:allow hotalloc completion-event buffer; bounded by the owner's outstanding requests and reused across drains
	q.done = append(q.done, r)
	p := q.th.P
	if w := p.w; w.tel != nil {
		w.tel.CQDepth(at, int64(q.len()))
	}
	p.activity.WakeAll(at)
}

// len returns the number of delivered, undrained completions.
func (q *completionQueue) len() int { return len(q.done) - q.head }

// waitAny blocks until a completion is delivered, then drains it. The
// owner parks on the proc's activity queue until the queue is Ready;
// completions, failure events and crash unwinding all wake it.
func (q *completionQueue) waitAny() *Request {
	th := q.th
	for q.len() == 0 {
		th.checkCrashed()
		th.P.activity.WaitUntil(th.S, q)
	}
	return q.take()
}

// Ready is waitAny's wake condition (sim.WaitQueue.WaitUntil): a
// completion was delivered, or the owner's proc crashed and the owner
// must unwind.
//
//simcheck:hotpath checked by the engine on every owner wake; stays allocation-free
func (q *completionQueue) Ready() bool { return q.len() != 0 || q.th.P.crashed }

// take removes the oldest delivered completion, charging the completion-
// object processing cost (the drain side's analogue of Wait's
// RequestFreeWork; the free itself already ran at delivery).
func (q *completionQueue) take() *Request {
	r := q.done[q.head]
	q.done[q.head] = nil
	q.head++
	if q.head == len(q.done) {
		q.done, q.head = q.done[:0], 0
	}
	th := q.th
	th.S.Sleep(th.cost().RequestFreeWork)
	if w := th.P.w; w.tel != nil {
		w.tel.CQDepth(th.S.Now(), int64(q.len()))
	}
	return r
}

// ensureCQ returns the thread's completion queue (continuation-mode
// Waitall drains through it; it is always empty between calls).
func (th *Thread) ensureCQ() *completionQueue {
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
		r := q.waitAny()
		if r.err != nil {
			// Continuation delivery replaces Wait's error-handler site:
			// raise through the communicator handler (panic under
			// MPI_ERRORS_ARE_FATAL), reporting the first error.
			if err := r.raise(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		// Waitall consumes its requests, so a provably dead one goes
		// back to its shard's pool here, on the drain side: pooled at
		// delivery, it could be handed out again by a later issue before
		// this loop reads it.
		r.p.recycle(r)
	}
	th.telCall("Waitall", tel)
	return firstErr
}
