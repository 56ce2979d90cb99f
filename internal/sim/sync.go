package sim

// This file provides small blocking building blocks used by higher layers:
// a FIFO wait queue, a counting barrier, and a channel-like mailbox. All of
// them operate on simthreads and virtual time.

// WaitQueue is a FIFO queue of parked threads.
type WaitQueue struct {
	q []*Thread
}

// Len returns the number of waiting threads.
func (w *WaitQueue) Len() int { return len(w.q) }

// Wait parks the calling thread until a matching WakeOne/WakeAll.
func (w *WaitQueue) Wait(t *Thread) {
	//simcheck:allow hotalloc the queue keeps its backing array across wakes; it grows only to the largest set of waiters
	w.q = append(w.q, t)
	t.Park()
}

// WakeOne unparks the oldest waiter at time at and returns it, or nil if
// the queue is empty.
func (w *WaitQueue) WakeOne(at Time) *Thread {
	if len(w.q) == 0 {
		return nil
	}
	t := w.q[0]
	copy(w.q, w.q[1:])
	w.q = w.q[:len(w.q)-1]
	t.Unpark(at)
	return t
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

// Remove deletes t from the queue without waking it. It reports whether t
// was present.
func (w *WaitQueue) Remove(t *Thread) bool {
	for i, x := range w.q {
		if x == t {
			w.q = append(w.q[:i], w.q[i+1:]...)
			return true
		}
	}
	return false
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

// Mailbox is an unbounded FIFO of values with blocking receive, used to
// model queues between simulated agents (e.g. a NIC completion queue).
type Mailbox struct {
	items []interface{}
	recvq WaitQueue
}

// Put appends v and wakes one blocked receiver (at time at).
func (m *Mailbox) Put(at Time, v interface{}) {
	m.items = append(m.items, v)
	m.recvq.WakeOne(at)
}

// TryGet removes and returns the oldest value, or nil and false when empty.
func (m *Mailbox) TryGet() (interface{}, bool) {
	if len(m.items) == 0 {
		return nil, false
	}
	v := m.items[0]
	copy(m.items, m.items[1:])
	m.items[len(m.items)-1] = nil
	m.items = m.items[:len(m.items)-1]
	return v, true
}

// Get blocks until a value is available and returns it.
func (m *Mailbox) Get(t *Thread) interface{} {
	for {
		if v, ok := m.TryGet(); ok {
			return v
		}
		m.recvq.Wait(t)
	}
}

// Len returns the number of queued values.
func (m *Mailbox) Len() int { return len(m.items) }
