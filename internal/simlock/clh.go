package simlock

import (
	"fmt"

	"mpicontend/internal/machine"
)

// CLHLock models the CLH queue lock (Craig; Landin & Hagersten): each
// acquirer enqueues a node and busy-waits on its *predecessor's* node,
// which lives on a dedicated cache line. Arbitration is FCFS like the
// ticket lock, but the hand-off differs: because every waiter spins on a
// private line, the release is pushed to exactly one core by the coherence
// protocol and the successor observes it right after the line transfer —
// there is no shared now_serving line whose spin-phase alignment delays
// the observation. In the model that means the ticket lock's
// SpinCheckPeriod quantization does not apply to CLH hand-offs.
type CLHLock struct {
	cfg    *Config
	locked bool
	holder *Ctx
	// line is the home of the tail word (the swap target of an enqueue);
	// only uncontended acquisitions pay for fetching it.
	line   machine.Place
	hasOwn bool

	// waiters[whead:] is the implicit queue of parked acquirers in enqueue
	// order (each spinning on its predecessor's node line).
	waiters []clhWaiter
	whead   int

	// wakeFn is the shared hand-off callback (sim.AtArg): one long-lived
	// closure instead of one allocation per release.
	wakeFn func(interface{})

	name string
}

type clhWaiter struct {
	c *Ctx
}

// NewCLHLock returns a CLH queue lock.
func NewCLHLock(cfg *Config) *CLHLock {
	l := &CLHLock{cfg: cfg, name: "CLH"}
	l.wakeFn = func(x interface{}) {
		x.(*Ctx).T.Unpark(l.cfg.Eng.Now())
	}
	return l
}

// Name returns the figure label of the lock.
func (l *CLHLock) Name() string { return l.name }

// Holder returns the current owner context, or nil when free.
func (l *CLHLock) Holder() *Ctx { return l.holder }

// Acquire swaps a fresh node into the tail and blocks until the
// predecessor's node flips. An uncontended acquire pays the tail-word line
// transfer; a queued acquire pays nothing up front (the swap overlaps the
// spin setup) and is charged the hand-off transfer at release time.
func (l *CLHLock) Acquire(c *Ctx, _ Class) {
	if !l.locked && l.whead >= len(l.waiters) {
		l.locked = true
		l.holder = c
		cost := int64(0)
		if l.hasOwn {
			cost = l.cfg.Cost.Transfer(l.line, c.Place)
		}
		l.line = c.Place
		l.hasOwn = true
		if cost > 0 {
			c.T.Sleep(cost)
		}
		return
	}
	l.waiters = append(l.waiters, clhWaiter{c: c})
	c.T.Park()
	if l.holder != c {
		panic("simlock: CLH lock woke a thread out of turn")
	}
}

// Release flips the holder's node and hands the lock to the successor, if
// one is queued. The successor spins on this very line, so it observes the
// flip one line transfer later — no spin-period rounding.
func (l *CLHLock) Release(c *Ctx, _ Class) {
	if !l.locked {
		panic(fmt.Sprintf("simlock: release of unlocked %s by %q", l.name, c.T.Name()))
	}
	eng := l.cfg.Eng
	now := eng.Now()
	l.locked = false
	l.holder = nil
	l.line = c.Place
	l.hasOwn = true

	if l.whead >= len(l.waiters) {
		return // nobody queued
	}
	w := l.waiters[l.whead]
	l.waiters[l.whead] = clhWaiter{}
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
			l.waiters[i] = clhWaiter{}
		}
		l.waiters = l.waiters[:n]
		l.whead = 0
	}
	at := now + l.cfg.Cost.Transfer(c.Place, w.c.Place)
	l.locked = true
	l.holder = w.c
	l.line = w.c.Place
	eng.AtArg(at, l.wakeFn, w.c)
}
