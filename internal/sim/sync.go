package sim

// This file provides small blocking building blocks used by higher layers:
// a FIFO wait queue and a counting barrier. Both operate on simthreads and
// virtual time.

// WaitQueue is a FIFO queue of parked threads.
type WaitQueue struct {
	q []*Thread
}

// push appends a waiter.
func (w *WaitQueue) push(t *Thread) {
	//simcheck:allow hotalloc the queue keeps its backing array across wakes; it grows only to the largest set of waiters
	w.q = append(w.q, t)
}

// Wait parks the calling thread until a WakeAll.
func (w *WaitQueue) Wait(t *Thread) {
	w.push(t)
	t.Park()
}

// Cond is the condition a WaitUntil waiter waits for.
type Cond interface {
	// Ready reports whether the waiter may go on. It runs in engine
	// context, on every wake of the waiter, with no simthread running. It
	// must not block, schedule, draw random numbers or touch telemetry:
	// it may only read state.
	Ready() bool
}

// WaitUntil parks the calling thread on the queue until a wake finds c
// ready. It means exactly
//
//	for { w.Wait(t); if c.Ready() { return } }
//
// except that a wake which finds c not ready never switches into the
// thread: the engine re-queues it in place (Engine.quietWake), doing
// what the thread would have done at that same event — the same state
// transitions, in the same order, and the same position at the tail of
// the queue. Event order, sequence numbers, event counts, the queue's
// order and the OnThreadState stream are therefore those of the loop.
//
//simcheck:hotpath every park on a condition passes through here; stays allocation-free
func (w *WaitQueue) WaitUntil(t *Thread, c Cond) {
	w.push(t)
	t.until, t.untilQ = c, w
	t.Park()
	t.until, t.untilQ = nil, nil
}

// WakeAll unparks every waiter at time at and returns how many were woken.
func (w *WaitQueue) WakeAll(at Time) int {
	n := len(w.q)
	for _, t := range w.q {
		t.Unpark(at)
	}
	w.q = w.q[:0]
	return n
}

// Barrier blocks N participants until all have arrived, modelling an
// OpenMP-style thread barrier. The last arrival releases the others after
// the configured release latency (fan-out cost).
type Barrier struct {
	N       int
	Release Time // per-release wake latency; zero is allowed

	waiting WaitQueue
	arrived int
	// generation counting is implicit: all waiters of a generation are
	// released before any participant can re-enter, because release
	// happens synchronously in virtual time before the waker proceeds.
}

// Wait blocks t until all N participants have called Wait. It returns the
// time spent blocked in virtual nanoseconds.
func (b *Barrier) Wait(t *Thread) Time {
	start := t.Now()
	b.arrived++
	if b.arrived == b.N {
		b.arrived = 0
		b.waiting.WakeAll(t.Now() + b.Release)
		if b.Release > 0 {
			t.Sleep(b.Release)
		}
		return t.Now() - start
	}
	b.waiting.Wait(t)
	return t.Now() - start
}
