package simlock

// PriorityLock is the paper's two-level arbitration scheme (§5.2, Fig. 7),
// composed of three locks:
//
//	H  serializes high-priority threads (the MPI call main path);
//	L  serializes low-priority threads (the progress loop);
//	B  lets the high-priority class block the low-priority class.
//
// The first high-priority thread in a burst acquires B; subsequent
// high-priority threads ride the already_blocked flag. The last
// high-priority thread (no waiters left on H) releases B, letting
// low-priority threads through.
//
// The paper builds the parts from ticket locks (KindPriority), so fairness
// within each class is FCFS by construction. §7 argues the same shape
// built from futex mutexes (KindPrioMutex) cannot work: mutexes guarantee
// no fairness within a class, and low-priority threads can monopolize B
// over high-priority ones. That variant exists as an ablation so the
// claim can be measured.
type PriorityLock struct {
	name           string
	h, l, b        priorityPart
	alreadyBlocked bool
}

// priorityPart is one of the three locks of the Fig. 7 composition.
type priorityPart interface {
	Lock
	// HasWaiters detects the last high-priority thread. A futex mutex
	// answers from its contender count, exactly the information a
	// futex-based design cannot get race-free — part of why §7 rejects
	// that construction.
	HasWaiters() bool
	// TransferOwnership lets the last high-priority thread release B,
	// which the burst's first one acquired.
	TransferOwnership(to *Ctx)
}

// Name returns the figure label of the lock.
func (p *PriorityLock) Name() string { return p.name }

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
		// B acquisition as still held here, though the arms are mutually
		// exclusive. The real orders are H->B and L->B only.
		//simcheck:allow lockorder High and Low arms are exclusive; B is not held on this path
		p.l.Acquire(c, Low)
		//simcheck:allow lockorder High and Low arms are exclusive; B is not held on this path
		p.b.Acquire(c, Low)
	}
}

// Release leaves the critical section. cl must match the class used to
// acquire.
func (p *PriorityLock) Release(c *Ctx, cl Class) {
	if cl == High {
		if !p.h.HasWaiters() {
			// Last high-priority thread: let the low-priority class pass.
			p.b.TransferOwnership(c)
			p.b.Release(c, High)
			p.alreadyBlocked = false
		}
		p.h.Release(c, High)
	} else {
		p.b.Release(c, Low)
		p.l.Release(c, Low)
	}
}
