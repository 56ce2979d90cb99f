package simlock

import "mpicontend/internal/machine"

// cohortBatch bounds how many consecutive hand-offs stay within one socket
// before the cohort must pass the lock on; this is what separates a cohort
// lock from the starvation-prone socket-priority policy of §7.
const cohortBatch = 8

// CohortLock is a NUMA-aware lock in the style of Dice/Marathe/Shavit
// cohort locks: a per-socket ticket lock nested under a global ticket
// lock. The holder prefers to hand off within its socket — capturing the
// inter-socket-traffic savings the paper's §7 wants from socket-aware
// arbitration — but only for a bounded batch, so remote sockets cannot
// starve (the failure mode §7 predicts for the naive policy, and which
// KindSocketPriority exhibits). It is an extension beyond the paper,
// benchmarked in the "ablation-socketprio" experiment.
type CohortLock struct {
	cfg    *Config
	global *queueLock
	socks  map[int]*cohortSock
}

type cohortSock struct {
	tl         *queueLock
	cohortOwns bool // the global lock is held on behalf of this socket
	batch      int
}

// Name returns the figure label of the lock.
func (l *CohortLock) Name() string { return "Cohort" }

func (l *CohortLock) sock(p machine.Place) *cohortSock {
	key := p.Node*64 + p.Socket
	s := l.socks[key]
	if s == nil {
		s = &cohortSock{tl: newTicket(l.cfg, "cohort_local")}
		l.socks[key] = s
	}
	return s
}

// Acquire takes the local socket lock and, unless the cohort already owns
// the global lock, the global lock too.
func (l *CohortLock) Acquire(c *Ctx, cl Class) {
	s := l.sock(c.Place)
	s.tl.Acquire(c, cl)
	if !s.cohortOwns {
		l.global.Acquire(c, cl)
	}
	s.cohortOwns = false // consumed; release decides whether to re-grant
}

// Release hands off within the socket while waiters remain and the batch
// allows; otherwise it releases the global lock so another socket runs.
// The global lock was taken by whichever cohort member arrived first, so
// its ownership moves to the releaser before it is released.
func (l *CohortLock) Release(c *Ctx, cl Class) {
	s := l.sock(c.Place)
	if s.tl.HasWaiters() && s.batch < cohortBatch {
		s.batch++
		s.cohortOwns = true
		s.tl.Release(c, cl)
		return
	}
	s.batch = 0
	l.global.TransferOwnership(c)
	l.global.Release(c, cl)
	s.tl.Release(c, cl)
}
