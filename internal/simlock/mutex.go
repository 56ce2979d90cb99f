package simlock

import (
	"fmt"

	"mpicontend/internal/machine"
	"mpicontend/internal/sim"
)

// mutexWaiter tracks one thread contending for a FutexMutex. Waiters are
// pooled on their mutex: Acquire takes one from the free list and grant
// returns it there once it holds no live timer and sits on no other list,
// so steady-state contention allocates none. A waiter sits on at most one
// list at a time — the spinner set, the futex sleeper queue or the free
// list — linked through its own prev/next fields; while elected to own
// the lock (m.grantTo) it sits on none.
type mutexWaiter struct {
	c         *Ctx
	spinStart sim.Time  // when the current user-space spin phase began
	sleepTmr  sim.Timer // pending spinner->sleeper transition

	prev, next *mutexWaiter
	on         *waitList // the list w sits on, nil if none
}

// waitList is an intrusive FIFO of waiters: append, removal from anywhere
// and pop from the front are O(1), iteration follows insertion order, and
// there is no backing array to grow or to lose capacity on pops.
type waitList struct {
	head, tail *mutexWaiter
	n          int
}

func (l *waitList) push(w *mutexWaiter) {
	w.prev, w.next, w.on = l.tail, nil, l
	if l.tail == nil {
		l.head = w
	} else {
		l.tail.next = w
	}
	l.tail = w
	l.n++
}

func (l *waitList) remove(w *mutexWaiter) {
	if w.prev == nil {
		l.head = w.next
	} else {
		w.prev.next = w.next
	}
	if w.next == nil {
		l.tail = w.prev
	} else {
		w.next.prev = w.prev
	}
	w.prev, w.next, w.on = nil, nil, nil
	l.n--
}

// popFront removes and returns the oldest waiter, or nil if l is empty.
func (l *waitList) popFront() *mutexWaiter {
	w := l.head
	if w != nil {
		l.remove(w)
	}
	return w
}

// FutexMutex models the default NPTL pthread mutex (paper §2.2):
//
//   - acquisition first races a compare-and-swap in user space;
//   - a thread that fails keeps spinning briefly, then sleeps in the kernel
//     (FUTEX_WAIT), joining a FIFO futex queue;
//   - the releaser wakes at most one sleeper (FUTEX_WAKE); the woken thread
//     must re-race the CAS in user space against any spinning threads.
//
// The user-space race is decided by modelled cache physics: each contender
// observes the released lock line after the line-transfer latency from the
// releaser's core, aligned to its own spin-check phase, plus a CAS-storm
// penalty proportional to the number of racing contenders and a small
// seeded jitter. This is the "fastest-thread-first" arbitration whose
// NUMA-induced bias the paper analyses in §4.
//
// The acquire/grant/release cycle allocates nothing in steady state: the
// grant and sleep callbacks are built once per mutex and armed with
// AtTimerArg, timers are values, and waiters come from a per-mutex pool.
type FutexMutex struct {
	cfg    *Config
	locked bool
	holder *Ctx
	line   machine.Place // current home of the lock cache line
	hasOwn bool          // line has been written at least once

	spinners waitList
	sleepers waitList // futex FIFO queue
	free     waitList // pooled waiters

	grantTmr sim.Timer
	grantTo  *mutexWaiter
	grantAt  sim.Time

	// grantFn and sleepFn are the timer callbacks, bound once to m; the
	// waiter travels as the timer's argument.
	grantFn func(interface{})
	sleepFn func(interface{})

	// spinForever disables the futex path entirely, turning the model
	// into a plain test-and-set spinlock (KindTAS).
	spinForever bool
	name        string
}

// newFutexMutex returns the pthread-mutex model named name; spinForever
// drops the futex sleep path, leaving a test-and-set spinlock (TAS).
func newFutexMutex(cfg *Config, name string, spinForever bool) *FutexMutex {
	m := &FutexMutex{cfg: cfg, spinForever: spinForever, name: name}
	m.grantFn = func(w interface{}) { m.grant(w.(*mutexWaiter)) }
	m.sleepFn = func(w interface{}) { m.toSleep(w.(*mutexWaiter)) }
	return m
}

// Name returns the figure label of the lock.
func (m *FutexMutex) Name() string { return m.name }

// TransferOwnership reassigns the held lock to ctx so that ctx may release
// it. Used by lock compositions where logical ownership migrates between
// threads (e.g. the blocking lock of a priority scheme).
func (m *FutexMutex) TransferOwnership(to *Ctx) {
	if !m.locked {
		panic("simlock: ownership transfer of unlocked mutex")
	}
	m.holder = to
}

// HasWaiters reports whether any thread is spinning or sleeping on the
// mutex.
func (m *FutexMutex) HasWaiters() bool { return m.spinners.n+m.sleepers.n > 0 }

// casArrival computes when ctx's compare-and-swap would land if issued in
// reaction to the line being (or becoming) visible at base time.
func (m *FutexMutex) casArrival(base sim.Time, c *Ctx) sim.Time {
	eng := m.cfg.Eng
	tr := int64(0)
	if m.hasOwn {
		tr = m.cfg.Cost.Transfer(m.line, c.Place)
	}
	a := base + tr
	if n := m.spinners.n; n > 1 {
		a += m.cfg.Cost.CASPenalty * int64(n-1)
	}
	if j := m.cfg.Cost.CASJitter; j > 0 {
		a += eng.Rand().Int63n(j)
	}
	return a
}

// alignSpin rounds t up to w's next spin-check instant.
func (m *FutexMutex) alignSpin(t sim.Time, w *mutexWaiter) sim.Time {
	p := m.cfg.Cost.SpinCheckPeriod
	if p <= 0 || t <= w.spinStart {
		return t
	}
	k := (t - w.spinStart + p - 1) / p
	return w.spinStart + k*p
}

// Acquire blocks until the calling thread owns the mutex. The class is
// ignored: pthread mutexes have no priority support.
//
//simcheck:hotpath every mutex acquisition; waiters are pooled and callbacks prebuilt
func (m *FutexMutex) Acquire(c *Ctx, _ Class) {
	eng := m.cfg.Eng
	now := eng.Now()
	w := m.newWaiter(c, now)

	if !m.locked {
		arrival := m.casArrival(now, c)
		switch {
		case m.grantTo == nil:
			m.scheduleGrant(w, arrival)
		case arrival < m.grantAt:
			// This thread's CAS lands before the currently chosen
			// winner's: it steals the lock (fastest-thread-first).
			loser := m.grantTo
			m.grantTmr.Cancel()
			m.grantTo = nil
			m.readdSpinner(loser)
			m.scheduleGrant(w, arrival)
		default:
			m.addSpinner(w, now)
		}
	} else {
		m.addSpinner(w, now)
	}
	c.T.Park()
	// Woken only by grant(); we now own the lock.
	if m.holder != c {
		panic("simlock: mutex woke a thread it did not grant")
	}
}

// newWaiter takes a waiter for c from the pool, or makes one.
func (m *FutexMutex) newWaiter(c *Ctx, now sim.Time) *mutexWaiter {
	w := m.free.popFront()
	if w == nil {
		//simcheck:allow hotalloc pool refill slow path; at most one waiter per contending thread, reused after
		w = &mutexWaiter{}
	}
	w.c = c
	w.spinStart = now
	return w
}

// addSpinner registers w as a user-space spinner starting at time start and
// arms its futex-sleep transition.
func (m *FutexMutex) addSpinner(w *mutexWaiter, start sim.Time) {
	w.spinStart = start
	m.spinners.push(w)
	if m.spinForever {
		return
	}
	w.sleepTmr = m.cfg.Eng.AtTimerArg(start+m.cfg.Cost.MutexSpinBudget, m.sleepFn, w)
}

// readdSpinner returns an election loser to the spinner set without
// disturbing its true spin phase: losing a CAS race does not delay the
// thread's next attempt, so its spinStart (wake time) must be preserved.
func (m *FutexMutex) readdSpinner(w *mutexWaiter) {
	m.spinners.push(w)
	if m.spinForever || w.sleepTmr.Pending() {
		return
	}
	deadline := w.spinStart + m.cfg.Cost.MutexSpinBudget
	if now := m.cfg.Eng.Now(); deadline < now {
		deadline = now
	}
	w.sleepTmr = m.cfg.Eng.AtTimerArg(deadline, m.sleepFn, w)
}

// toSleep moves a still-spinning waiter into the kernel futex queue.
//
//simcheck:hotpath sleep-timer callback, reached only through the timer's argFn
func (m *FutexMutex) toSleep(w *mutexWaiter) {
	if w.on != &m.spinners {
		return // elected to own the lock meanwhile: ignore
	}
	m.spinners.remove(w)
	m.sleepers.push(w)
}

// scheduleGrant elects w to own the lock at time at.
func (m *FutexMutex) scheduleGrant(w *mutexWaiter, at sim.Time) {
	m.grantTo = w
	m.grantAt = at
	m.grantTmr = m.cfg.Eng.AtTimerArg(at, m.grantFn, w)
}

// grant finalizes ownership transfer to w at the elected time m.grantAt
// and returns w to the pool: its grant timer has fired, its sleep timer
// is cancelled here, and an elected waiter sits on no list.
//
//simcheck:hotpath grant-timer callback, reached only through the timer's argFn
func (m *FutexMutex) grant(w *mutexWaiter) {
	if m.grantTo != w {
		return // stale event (winner was re-elected); ignore
	}
	m.grantTo = nil
	w.sleepTmr.Cancel()
	c := w.c
	*w = mutexWaiter{}
	m.free.push(w)
	m.locked = true
	m.holder = c
	m.line = c.Place
	m.hasOwn = true
	c.T.Unpark(m.grantAt)
}

// Release frees the mutex, triggering the user-space CAS race among
// spinners and a FUTEX_WAKE of the oldest sleeper.
//
//simcheck:hotpath every mutex release; the CAS race walks the intrusive spinner list
func (m *FutexMutex) Release(c *Ctx, _ Class) {
	if !m.locked || m.holder != c {
		panic(fmt.Sprintf("simlock: release of %s by non-holder %q", m.name, c.T.Name()))
	}
	eng := m.cfg.Eng
	now := eng.Now()
	m.locked = false
	m.holder = nil
	m.line = c.Place
	m.hasOwn = true

	// FUTEX_WAKE: the oldest sleeper re-enters user space after the
	// kernel wake-up latency and becomes a spinner again.
	woken := m.sleepers.popFront()
	if woken != nil {
		wakeAt := now + m.cfg.Cost.FutexWake
		if j := m.cfg.Cost.FutexWakeJitter; j > 0 {
			wakeAt += eng.Rand().Int63n(j + 1)
		}
		m.addSpinner(woken, wakeAt)
	}

	if m.spinners.n == 0 {
		return // lock stays free; next Acquire takes it directly
	}

	// CAS race: each spinner observes the release after the line
	// transfer, at its next spin check; the earliest CAS wins. A thread
	// still in kernel-wake transit (spinStart in the future) cannot CAS
	// before it reaches user space.
	var best *mutexWaiter
	var bestAt sim.Time
	for w := m.spinners.head; w != nil; w = w.next {
		base := now
		if w.spinStart > base {
			base = w.spinStart
		}
		observe := base + m.cfg.Cost.Transfer(m.line, w.c.Place)
		a := m.alignSpin(observe, w)
		if n := m.spinners.n; n > 1 {
			a += m.cfg.Cost.CASPenalty * int64(n-1)
		}
		if j := m.cfg.Cost.CASJitter; j > 0 {
			a += m.cfg.Eng.Rand().Int63n(j)
		}
		if best == nil || a < bestAt {
			best, bestAt = w, a
		}
	}
	m.spinners.remove(best)
	m.scheduleGrant(best, bestAt)

	if woken != nil && m.cfg.Cost.FutexWakeSyscall > 0 {
		// The releaser executes the FUTEX_WAKE syscall after the lock
		// word is already free: stealers may race in meanwhile, but the
		// releaser itself is stuck here before its next user-space work.
		c.T.Sleep(m.cfg.Cost.FutexWakeSyscall)
	}
}
