package simlock

import (
	"fmt"

	"mpicontend/internal/machine"
	"mpicontend/internal/sim"
)

// queueLock is the FCFS hand-off lock family: the ticket lock of §5.1
// (Fig. 4), the CLH and MCS queue locks of related work §8, and the
// socket-aware arbitration §7 discusses and rejects. A release hands the
// lock to one queued waiter, which observes it one line transfer from the
// releaser's core later; the memory hierarchy affects only that latency,
// never the order. The kinds differ in three physics facts, set only by
// their constructors in New:
//
//   - fetchFree: an uncontended acquire fetches the lock line from its
//     last writer (the ticket's fetch-and-increment, the CLH and
//     socket-priority tail swap). The MCS model prices only hand-offs,
//     and the priority lock's ticket_B line is fetched concurrently with
//     ticket_H's on the same path, so neither is charged.
//   - spinRound: waiters spin on the shared now_serving line, so a
//     successor observes the hand-off only at its next spin check
//     (ticket). CLH and MCS waiters spin on a private line that the
//     coherence protocol pushes to exactly one core: no rounding.
//   - socketFirst: a release serves the oldest waiter on the releaser's
//     socket, falling back to the oldest waiter anywhere (§7). This saves
//     inter-socket hand-offs but can starve remote sockets while the
//     local one keeps the queue non-empty (e.g. MPI_Test polling loops).
//
// Taking a ticket and enqueueing are one step in the simulation, so the
// lock keeps no ticket counters: it is free exactly when it is unlocked
// and nobody is queued.
type queueLock struct {
	cfg    *Config
	name   string
	locked bool
	holder *Ctx
	line   machine.Place // home of the lock line (now_serving, tail word)
	hasOwn bool          // line has been written at least once

	fetchFree, spinRound, socketFirst bool

	// waiters[whead:] is the queue of parked acquirers in arrival order:
	// a ring over a reused slice, so queueing allocates nothing once the
	// backing array has grown to the number of contending threads.
	waiters []queueWaiter
	whead   int
}

type queueWaiter struct {
	c         *Ctx
	spinStart sim.Time // when the waiter began spinning
}

// newTicket returns a FCFS ticket lock named name.
func newTicket(cfg *Config, name string) *queueLock {
	return &queueLock{cfg: cfg, name: name, fetchFree: true, spinRound: true}
}

// wakeHolder is the shared hand-off callback (sim.AtArg): the operand is
// the new holder's context, so a hand-off allocates no closure.
func wakeHolder(x interface{}) {
	t := x.(*Ctx).T
	t.Unpark(t.Now())
}

// Name returns the figure label of the lock.
func (l *queueLock) Name() string { return l.name }

// HasWaiters reports whether any thread is queued behind the holder.
func (l *queueLock) HasWaiters() bool { return l.whead < len(l.waiters) }

// TransferOwnership reassigns the held lock to ctx so that ctx may release
// it, where a composition moves logical ownership between threads.
func (l *queueLock) TransferOwnership(to *Ctx) {
	if !l.locked {
		panic(fmt.Sprintf("simlock: ownership transfer of unlocked %s", l.name))
	}
	l.holder = to
}

// Acquire takes the lock if it is free and otherwise queues the caller
// until a release hands the lock to it. The class is ignored; priority
// composition happens in PriorityLock.
//
//simcheck:hotpath every queue-lock acquisition; the waiter ring reuses its backing array
func (l *queueLock) Acquire(c *Ctx, _ Class) {
	if !l.locked && !l.HasWaiters() {
		l.locked, l.holder = true, c
		cost := int64(0)
		if l.hasOwn && l.fetchFree {
			cost = l.cfg.Cost.Transfer(l.line, c.Place)
		}
		l.line, l.hasOwn = c.Place, true
		if cost > 0 {
			c.T.Sleep(cost)
		}
		return
	}
	//simcheck:allow hotalloc ring growth: at most one slot per contending thread, kept when the queue drains
	l.waiters = append(l.waiters, queueWaiter{c: c, spinStart: l.cfg.Eng.Now()})
	c.T.Park()
	if l.holder != c {
		panic(fmt.Sprintf("simlock: %s woke thread %q out of turn", l.name, c.T.Name()))
	}
}

// Release frees the lock and, if anyone is queued, hands it to the waiter
// the kind serves next: it becomes the holder at once and runs after the
// line transfer (and, for the ticket lock, its next spin check).
//
//simcheck:hotpath every queue-lock release; the hand-off callback is shared
func (l *queueLock) Release(c *Ctx, _ Class) {
	if !l.locked || l.holder != c {
		panic(fmt.Sprintf("simlock: release of %s by non-holder %q", l.name, c.T.Name()))
	}
	l.locked, l.holder = false, nil
	l.line, l.hasOwn = c.Place, true
	if !l.HasWaiters() {
		return
	}
	w := l.dequeue(c.Place)
	at := l.cfg.Eng.Now() + l.cfg.Cost.Transfer(c.Place, w.c.Place)
	if p := l.cfg.Cost.SpinCheckPeriod; l.spinRound && p > 0 && at > w.spinStart {
		at = w.spinStart + (at-w.spinStart+p-1)/p*p
	}
	l.locked, l.holder = true, w.c
	l.line = w.c.Place
	l.cfg.Eng.AtArg(at, wakeHolder, w.c)
}

// dequeue removes and returns the waiter a release from place from
// serves: the oldest, or under socketFirst the oldest on from's socket
// if there is one.
func (l *queueLock) dequeue(from machine.Place) queueWaiter {
	i := l.whead
	if l.socketFirst {
		for j := i; j < len(l.waiters); j++ {
			if l.waiters[j].c.Place.SameSocket(from) {
				i = j
				break
			}
		}
	}
	w := l.waiters[i]
	// Close the gap from the head side, keeping arrival order.
	copy(l.waiters[l.whead+1:i+1], l.waiters[l.whead:i])
	l.waiters[l.whead] = queueWaiter{}
	l.whead++
	if l.whead == len(l.waiters) {
		// Queue drained: rewind the ring, keeping the backing array.
		l.waiters = l.waiters[:0]
		l.whead = 0
	} else if l.whead >= 64 && l.whead*2 >= len(l.waiters) {
		// Saturated queue that never fully drains: slide the live tail
		// down so the backing array stays bounded.
		n := copy(l.waiters, l.waiters[l.whead:])
		clear(l.waiters[n:])
		l.waiters = l.waiters[:n]
		l.whead = 0
	}
	return w
}
