package simlock

import "mpicontend/internal/machine"

// PrioMutexLock stacks three futex mutexes in the shape of Fig. 7. The
// paper's §7 argues this cannot work: mutexes guarantee no fairness within
// a priority class, and low-priority threads can monopolize the blocking
// lock over high-priority ones. It exists purely as an ablation so that
// claim can be measured.
type PrioMutexLock struct {
	h, l, b        *FutexMutex
	alreadyBlocked bool
	highHolders    int
}

// NewPrioMutexLock builds the mutex-based priority composition of §7.
func NewPrioMutexLock(cfg *Config) *PrioMutexLock {
	return &PrioMutexLock{h: NewFutexMutex(cfg), l: NewFutexMutex(cfg), b: NewFutexMutex(cfg)}
}

// Name returns the figure label of the lock.
func (p *PrioMutexLock) Name() string { return "PrioMutex" }

// Acquire enters the critical section with the given class.
func (p *PrioMutexLock) Acquire(c *Ctx, cl Class) {
	if cl == High {
		p.h.Acquire(c, High)
		if !p.alreadyBlocked {
			p.b.Acquire(c, High)
			p.alreadyBlocked = true
		}
		p.highHolders++
	} else {
		// Same shape as PriorityLock.Acquire: the held-lock walk is
		// flow-insensitive and carries the High arm's b acquisition into
		// this branch, though the arms are mutually exclusive.
		//simcheck:allow lockorder High and Low arms are exclusive; b is not held on this path
		p.l.Acquire(c, Low)
		//simcheck:allow lockorder High and Low arms are exclusive; b is not held on this path
		p.b.Acquire(c, Low)
	}
}

// Release leaves the critical section.
func (p *PrioMutexLock) Release(c *Ctx, cl Class) {
	if cl == High {
		p.highHolders--
		// A mutex has no waiter count visible in user space; approximate
		// "last high-priority thread" with the contender count, which is
		// exactly the information a futex-based design cannot get
		// race-free — part of why §7 rejects this construction.
		if p.h.ContenderCount() == 0 {
			p.releaseB(c)
			p.alreadyBlocked = false
		}
		p.h.Release(c, High)
	} else {
		p.releaseB(c)
		p.l.Release(c, Low)
	}
}

// releaseB releases b from the calling context (mutexes assert holder
// identity, and ownership of b migrates within the high class, so it is
// transferred to the caller first).
func (p *PrioMutexLock) releaseB(c *Ctx) {
	if p.b.Holder() != c {
		p.b.TransferOwnership(c)
	}
	p.b.Release(c, High)
}

// SocketPriorityLock is the socket-aware arbitration §7 discusses and
// rejects: on release it serves waiters from the releaser's socket first,
// falling back to other sockets only when the local queue is empty. This
// reduces inter-socket hand-offs but can starve remote sockets when the
// local socket keeps the queue non-empty (e.g. MPI_Test polling loops).
type SocketPriorityLock struct {
	cfg    *Config
	locked bool
	holder *Ctx
	line   machine.Place
	hasOwn bool
	queues map[int][]*Ctx // per (node,socket) key FIFO
	order  []int          // deterministic iteration order of keys
	total  int
}

// NewSocketPriorityLock returns the §7 socket-aware ablation lock.
func NewSocketPriorityLock(cfg *Config) *SocketPriorityLock {
	return &SocketPriorityLock{cfg: cfg, queues: make(map[int][]*Ctx)}
}

// Name returns the figure label of the lock.
func (l *SocketPriorityLock) Name() string { return "SocketPriority" }

func sockKey(p machine.Place) int { return p.Node*64 + p.Socket }

// Acquire blocks until the lock is granted by the socket-aware policy.
func (l *SocketPriorityLock) Acquire(c *Ctx, _ Class) {
	if !l.locked {
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
	k := sockKey(c.Place)
	if _, ok := l.queues[k]; !ok {
		l.order = append(l.order, k)
	}
	l.queues[k] = append(l.queues[k], c)
	l.total++
	c.T.Park()
	if l.holder != c {
		panic("simlock: socket-priority lock woke a thread out of turn")
	}
}

// Release grants the lock to the oldest waiter on the releaser's socket,
// or the oldest waiter anywhere if that socket has none.
func (l *SocketPriorityLock) Release(c *Ctx, _ Class) {
	if !l.locked || l.holder != c {
		panic("simlock: socket-priority release by non-holder")
	}
	l.locked = false
	l.holder = nil
	l.line = c.Place
	l.hasOwn = true
	if l.total == 0 {
		return
	}
	var w *Ctx
	local := sockKey(c.Place)
	if q := l.queues[local]; len(q) > 0 {
		w, l.queues[local] = q[0], q[1:]
	} else {
		for _, k := range l.order {
			if q := l.queues[k]; len(q) > 0 {
				w, l.queues[k] = q[0], q[1:]
				break
			}
		}
	}
	l.total--
	at := l.cfg.Eng.Now() + l.cfg.Cost.Transfer(c.Place, w.Place)
	l.locked = true
	l.holder = w
	l.line = w.Place
	l.cfg.Eng.At(at, func() { w.T.Unpark(at) })
}
