package simlock

import (
	"fmt"

	"mpicontend/internal/machine"
	"mpicontend/internal/sim"
)

// TicketLock models the FCFS ticket lock of paper §5.1 (Fig. 4): each
// acquirer takes a ticket with one fetch-and-increment and busy-waits until
// now_serving reaches it. Arbitration is strictly first-come-first-served;
// the memory hierarchy affects only the hand-off latency (the next holder
// observes the incremented now_serving after a line transfer from the
// releaser), never the order.
type TicketLock struct {
	cfg        *Config
	nextTicket uint64
	nowServing uint64
	locked     bool
	holder     *Ctx
	line       machine.Place // home of the now_serving line
	hasOwn     bool

	// waiters[whead:] is the FIFO of parked acquirers. Tickets are issued
	// monotonically and served in order, so arrival order equals serve
	// order: a ring over a reused slice replaces the old per-waiter map
	// entries, and queue-order snapshots need no sorting.
	waiters []ticketWaiter
	whead   int

	// wakeFn is the shared hand-off callback (sim.AtArg): one long-lived
	// closure instead of one allocation per release.
	wakeFn func(interface{})

	name string
	// skipFreeAcquireCharge elides the line-transfer cost of taking the
	// lock uncontended. The priority lock sets it on ticket_B: its line
	// is fetched concurrently with ticket_H's on the same path.
	skipFreeAcquireCharge bool
}

type ticketWaiter struct {
	ticket    uint64
	c         *Ctx
	spinStart sim.Time
}

// NewTicketLock returns a FCFS ticket lock.
func NewTicketLock(cfg *Config) *TicketLock {
	l := &TicketLock{cfg: cfg, name: "Ticket"}
	l.wakeFn = func(x interface{}) {
		x.(*Ctx).T.Unpark(l.cfg.Eng.Now())
	}
	return l
}

// Name returns the figure label of the lock.
func (l *TicketLock) Name() string { return l.name }

// Holder returns the current owner context, or nil when free.
func (l *TicketLock) Holder() *Ctx { return l.holder }

// HasWaiters reports whether any thread is queued behind the current
// holder. The priority lock uses it to detect "last high-priority thread".
func (l *TicketLock) HasWaiters() bool { return l.whead < len(l.waiters) }

// Acquire takes a ticket and blocks until served. The class is ignored;
// priority composition happens in PriorityLock.
func (l *TicketLock) Acquire(c *Ctx, _ Class) {
	my := l.nextTicket
	l.nextTicket++
	if my == l.nowServing && !l.locked {
		// Free lock: pay the fetch-and-increment line transfer and go.
		l.locked = true
		l.holder = c
		cost := int64(0)
		if l.hasOwn && !l.skipFreeAcquireCharge {
			cost = l.cfg.Cost.Transfer(l.line, c.Place)
		}
		l.line = c.Place
		l.hasOwn = true
		if cost > 0 {
			c.T.Sleep(cost)
		}
		return
	}
	l.waiters = append(l.waiters, ticketWaiter{ticket: my, c: c, spinStart: l.cfg.Eng.Now()})
	c.T.Park()
	if l.holder != c {
		panic("simlock: ticket lock woke a thread out of turn")
	}
}

// Release increments now_serving and hands the lock to the next ticket
// holder, if one is already waiting. Unlike a pthread mutex, any context
// may release (the priority lock passes ownership of its blocking ticket
// between high-priority threads, per Fig. 7).
func (l *TicketLock) Release(c *Ctx, _ Class) {
	if !l.locked {
		panic(fmt.Sprintf("simlock: release of unlocked %s by %q", l.name, c.T.Name()))
	}
	eng := l.cfg.Eng
	now := eng.Now()
	l.locked = false
	l.holder = nil
	l.nowServing++
	l.line = c.Place
	l.hasOwn = true

	if l.whead >= len(l.waiters) || l.waiters[l.whead].ticket != l.nowServing {
		return // next ticket holder has not arrived yet (or none issued)
	}
	w := l.waiters[l.whead]
	l.waiters[l.whead] = ticketWaiter{}
	l.whead++
	if l.whead == len(l.waiters) {
		// Queue drained: rewind the ring, keeping the backing array.
		l.waiters = l.waiters[:0]
		l.whead = 0
	} else if l.whead >= 64 && l.whead*2 >= len(l.waiters) {
		// Saturated queue that never fully drains: slide the live tail
		// down so the backing array stays bounded.
		n := copy(l.waiters, l.waiters[l.whead:])
		for i := n; i < len(l.waiters); i++ {
			l.waiters[i] = ticketWaiter{}
		}
		l.waiters = l.waiters[:n]
		l.whead = 0
	}
	// Hand-off: the waiter observes the new now_serving after the line
	// transfer, at its next spin check.
	at := now + l.cfg.Cost.Transfer(c.Place, w.c.Place)
	if p := l.cfg.Cost.SpinCheckPeriod; p > 0 && at > w.spinStart {
		k := (at - w.spinStart + p - 1) / p
		at = w.spinStart + k*p
	}
	l.locked = true
	l.holder = w.c
	l.line = w.c.Place
	eng.AtArg(at, l.wakeFn, w.c)
}
