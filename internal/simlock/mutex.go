package simlock

import (
	"fmt"

	"mpicontend/internal/machine"
	"mpicontend/internal/sim"
)

// mutexWaiter tracks one thread contending for a FutexMutex.
type mutexWaiter struct {
	c         *Ctx
	spinStart sim.Time   // when the current user-space spin phase began
	sleepTmr  *sim.Timer // pending spinner->sleeper transition
	sleeping  bool
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
type FutexMutex struct {
	cfg    *Config
	locked bool
	holder *Ctx
	line   machine.Place // current home of the lock cache line
	hasOwn bool          // line has been written at least once

	spinners []*mutexWaiter
	sleepers []*mutexWaiter // futex FIFO queue

	grantTmr *sim.Timer
	grantTo  *mutexWaiter
	grantAt  sim.Time

	// spinForever disables the futex path entirely, turning the model
	// into a plain test-and-set spinlock (used by TASLock).
	spinForever bool
	name        string
}

// NewFutexMutex returns the baseline pthread-mutex model.
func NewFutexMutex(cfg *Config) *FutexMutex {
	return &FutexMutex{cfg: cfg, name: "Mutex"}
}

// NewTASLock returns a test-and-set spinlock: the same CAS race as the
// mutex but without the futex sleep path (related work §8).
func NewTASLock(cfg *Config) *FutexMutex {
	return &FutexMutex{cfg: cfg, spinForever: true, name: "TAS"}
}

// Name returns the figure label of the lock.
func (m *FutexMutex) Name() string { return m.name }

// Holder returns the current owner context, or nil when free.
func (m *FutexMutex) Holder() *Ctx { return m.holder }

// TransferOwnership reassigns the held lock to ctx so that ctx may release
// it. Used by lock compositions where logical ownership migrates between
// threads (e.g. the blocking lock of a priority scheme).
func (m *FutexMutex) TransferOwnership(to *Ctx) {
	if !m.locked {
		panic("simlock: ownership transfer of unlocked mutex")
	}
	m.holder = to
}

// ContenderCount returns the number of threads currently waiting.
func (m *FutexMutex) ContenderCount() int { return len(m.spinners) + len(m.sleepers) }

// casArrival computes when ctx's compare-and-swap would land if issued in
// reaction to the line being (or becoming) visible at base time.
func (m *FutexMutex) casArrival(base sim.Time, c *Ctx) sim.Time {
	eng := m.cfg.Eng
	tr := int64(0)
	if m.hasOwn {
		tr = m.cfg.Cost.Transfer(m.line, c.Place)
	}
	a := base + tr
	if n := len(m.spinners); n > 1 {
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
func (m *FutexMutex) Acquire(c *Ctx, _ Class) {
	eng := m.cfg.Eng
	now := eng.Now()
	w := &mutexWaiter{c: c, spinStart: now}

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

// addSpinner registers w as a user-space spinner starting at time start and
// arms its futex-sleep transition.
func (m *FutexMutex) addSpinner(w *mutexWaiter, start sim.Time) {
	w.spinStart = start
	w.sleeping = false
	m.spinners = append(m.spinners, w)
	if m.spinForever {
		return
	}
	deadline := start + m.cfg.Cost.MutexSpinBudget
	w.sleepTmr = m.cfg.Eng.AtTimer(deadline, func() {
		w.sleepTmr = nil
		m.toSleep(w)
	})
}

// readdSpinner returns an election loser to the spinner set without
// disturbing its true spin phase: losing a CAS race does not delay the
// thread's next attempt, so its spinStart (wake time) must be preserved.
func (m *FutexMutex) readdSpinner(w *mutexWaiter) {
	m.spinners = append(m.spinners, w)
	if m.spinForever || w.sleepTmr != nil {
		return
	}
	deadline := w.spinStart + m.cfg.Cost.MutexSpinBudget
	if now := m.cfg.Eng.Now(); deadline < now {
		deadline = now
	}
	w.sleepTmr = m.cfg.Eng.AtTimer(deadline, func() {
		w.sleepTmr = nil
		m.toSleep(w)
	})
}

// toSleep moves a still-spinning waiter into the kernel futex queue.
func (m *FutexMutex) toSleep(w *mutexWaiter) {
	for i, s := range m.spinners {
		if s == w {
			m.spinners = append(m.spinners[:i], m.spinners[i+1:]...)
			w.sleeping = true
			m.sleepers = append(m.sleepers, w)
			return
		}
	}
	// Not a spinner any more (granted or already asleep): ignore.
}

// scheduleGrant elects w to own the lock at time at.
func (m *FutexMutex) scheduleGrant(w *mutexWaiter, at sim.Time) {
	m.grantTo = w
	m.grantAt = at
	m.grantTmr = m.cfg.Eng.AtTimer(at, func() { m.grant(w, at) })
}

// grant finalizes ownership transfer to w.
func (m *FutexMutex) grant(w *mutexWaiter, at sim.Time) {
	if m.grantTo != w {
		return // stale event (winner was re-elected); ignore
	}
	m.grantTo = nil
	m.grantTmr = nil
	if w.sleepTmr != nil {
		w.sleepTmr.Cancel()
		w.sleepTmr = nil
	}
	m.locked = true
	m.holder = w.c
	m.line = w.c.Place
	m.hasOwn = true
	w.c.T.Unpark(at)
}

// Release frees the mutex, triggering the user-space CAS race among
// spinners and a FUTEX_WAKE of the oldest sleeper.
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
	var woken *mutexWaiter
	if len(m.sleepers) > 0 {
		woken = m.sleepers[0]
		m.sleepers = m.sleepers[1:]
		wakeAt := now + m.cfg.Cost.FutexWake
		if j := m.cfg.Cost.FutexWakeJitter; j > 0 {
			wakeAt += eng.Rand().Int63n(j + 1)
		}
		m.addSpinner(woken, wakeAt)
	}

	if len(m.spinners) == 0 {
		return // lock stays free; next Acquire takes it directly
	}

	// CAS race: each spinner observes the release after the line
	// transfer, at its next spin check; the earliest CAS wins. A thread
	// still in kernel-wake transit (spinStart in the future) cannot CAS
	// before it reaches user space.
	var best *mutexWaiter
	var bestAt sim.Time
	for _, w := range m.spinners {
		base := now
		if w.spinStart > base {
			base = w.spinStart
		}
		observe := base + m.cfg.Cost.Transfer(m.line, w.c.Place)
		a := m.alignSpin(observe, w)
		if n := len(m.spinners); n > 1 {
			a += m.cfg.Cost.CASPenalty * int64(n-1)
		}
		if j := m.cfg.Cost.CASJitter; j > 0 {
			a += m.cfg.Eng.Rand().Int63n(j)
		}
		if best == nil || a < bestAt {
			best, bestAt = w, a
		}
	}
	m.removeSpinner(best)
	m.scheduleGrant(best, bestAt)

	if woken != nil && m.cfg.Cost.FutexWakeSyscall > 0 {
		// The releaser executes the FUTEX_WAKE syscall after the lock
		// word is already free: stealers may race in meanwhile, but the
		// releaser itself is stuck here before its next user-space work.
		c.T.Sleep(m.cfg.Cost.FutexWakeSyscall)
	}
}

func (m *FutexMutex) removeSpinner(w *mutexWaiter) {
	for i, s := range m.spinners {
		if s == w {
			m.spinners = append(m.spinners[:i], m.spinners[i+1:]...)
			return
		}
	}
}
