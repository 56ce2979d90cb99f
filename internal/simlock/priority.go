package simlock

// PriorityLock is the paper's custom two-level arbitration scheme (§5.2,
// Fig. 7), composed of three ticket locks:
//
//	ticket_H  serializes high-priority threads (the MPI call main path);
//	ticket_L  serializes low-priority threads (the progress loop);
//	ticket_B  lets the high-priority class block the low-priority class.
//
// The first high-priority thread in a burst acquires ticket_B; subsequent
// high-priority threads ride the already_blocked flag. The last
// high-priority thread (no waiters left on ticket_H) releases ticket_B,
// letting low-priority threads through. Fairness within each class is FCFS
// by construction.
type PriorityLock struct {
	h, l, b        *TicketLock
	alreadyBlocked bool
}

// NewPriorityLock builds the Fig. 7 composition.
func NewPriorityLock(cfg *Config) *PriorityLock {
	mk := func(name string) *TicketLock {
		t := NewTicketLock(cfg)
		t.name = name
		return t
	}
	b := mk("ticket_B")
	b.skipFreeAcquireCharge = true
	return &PriorityLock{h: mk("ticket_H"), l: mk("ticket_L"), b: b}
}

// Name returns the figure label of the lock.
func (p *PriorityLock) Name() string { return "Priority" }

// Acquire enters the critical section with the given class.
func (p *PriorityLock) Acquire(c *Ctx, cl Class) {
	if cl == High {
		p.h.Acquire(c, High)
		if !p.alreadyBlocked {
			p.b.Acquire(c, High)
			p.alreadyBlocked = true
		}
	} else {
		// The held-lock walk is flow-insensitive: it sees the High arm's
		// ticket_B acquisition as still held here, though the arms are
		// mutually exclusive. The real orders are H->B and L->B only.
		//simcheck:allow lockorder High and Low arms are exclusive; ticket_B is not held on this path
		p.l.Acquire(c, Low)
		//simcheck:allow lockorder High and Low arms are exclusive; ticket_B is not held on this path
		p.b.Acquire(c, Low)
	}
}

// Release leaves the critical section. cl must match the class used to
// acquire.
func (p *PriorityLock) Release(c *Ctx, cl Class) {
	if cl == High {
		if !p.h.HasWaiters() {
			// Last high-priority thread: let the low-priority class pass.
			p.b.Release(c, High)
			p.alreadyBlocked = false
		}
		p.h.Release(c, High)
	} else {
		p.b.Release(c, Low)
		p.l.Release(c, Low)
	}
}

// MCSLock models the queue lock of Mellor-Crummey and Scott (related work
// §8): FCFS like the ticket lock, but each waiter spins on its own cache
// line, so hand-off costs one line transfer from predecessor to successor
// and contention causes no global line storms. In this simulator that makes
// it behave like a ticket lock whose hand-off latency references the
// predecessor rather than a shared counter line.
type MCSLock struct {
	cfg    *Config
	locked bool
	holder *Ctx
	queue  []*Ctx
}

// NewMCSLock returns an MCS queue lock.
func NewMCSLock(cfg *Config) *MCSLock { return &MCSLock{cfg: cfg} }

// Name returns the figure label of the lock.
func (l *MCSLock) Name() string { return "MCS" }

// Acquire appends the caller to the queue (one atomic swap) and blocks
// until its predecessor hands off.
func (l *MCSLock) Acquire(c *Ctx, _ Class) {
	if !l.locked && len(l.queue) == 0 {
		l.locked = true
		l.holder = c
		return
	}
	l.queue = append(l.queue, c)
	c.T.Park()
	if l.holder != c {
		panic("simlock: MCS lock woke a thread out of turn")
	}
}

// Release hands the lock to the queue head by writing its local flag.
func (l *MCSLock) Release(c *Ctx, _ Class) {
	if !l.locked || l.holder != c {
		panic("simlock: MCS release by non-holder")
	}
	l.locked = false
	l.holder = nil
	if len(l.queue) == 0 {
		return
	}
	w := l.queue[0]
	l.queue = l.queue[1:]
	at := l.cfg.Eng.Now() + l.cfg.Cost.Transfer(c.Place, w.Place)
	l.locked = true
	l.holder = w
	l.cfg.Eng.At(at, func() { w.T.Unpark(at) })
}
