//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// ThreadState is a simthread's scheduling state, exposed to observers via
// Engine.OnThreadState.
type ThreadState int

// The scheduling states, in the order a thread's life passes them.
const (
	StateNew      ThreadState = iota // spawned, not yet dispatched
	StateRunning                     // executing, or runnable at the current instant
	StateSleeping                    // blocked in Sleep until its wake time
	StateParked                      // blocked in Park until an Unpark
	StateDone                        // returned, or retired at shutdown
)

// String names the state for thread dumps.
func (s ThreadState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateParked:
		return "parked"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// killed is the panic payload that unwinds a suspended simthread when the
// engine shuts down while the thread is still blocked: the coroutine's
// yield reports the stop, yield panics, and the thread's deferred calls
// run on the way out. The thread body recovers it, so it never reaches
// Run.
type killed struct{}

// Thread is a cooperative simulated thread. All methods must be called from
// the thread's own function (the engine guarantees only one simthread runs
// at a time, so no further synchronization is needed).
type Thread struct {
	eng *Engine
	id  int32 // beside daemon, so the struct stays in the 96-byte size class
	// daemon marks threads that may legitimately be parked when the
	// simulation ends (background pollers); they do not count as a
	// deadlock.
	daemon bool
	name   string
	state  ThreadState

	// next runs the thread's coroutine until it yields or returns; stop
	// unwinds a suspended coroutine, or retires one that never started
	// without running its body. coYield is the coroutine's own yield,
	// captured on first run.
	next    func() (struct{}, bool)
	stop    func()
	coYield func(struct{}) bool

	wake *event // pending wake event while sleeping or parked with deadline

	// until and untilQ are set while the thread waits in
	// WaitQueue.WaitUntil: the condition it waits for and the queue it
	// waits on, which a quiet wake re-queues it on.
	until  Cond
	untilQ *WaitQueue
}

// ID returns the thread's unique index within its engine.
func (t *Thread) ID() int { return int(t.id) }

// State returns the thread's current scheduling state.
func (t *Thread) State() ThreadState { return t.state }

// setState records a state transition and notifies the engine's observer.
// Same-state transitions are dropped so observers see only real changes.
func (t *Thread) setState(s ThreadState) {
	if t.state == s {
		return
	}
	t.state = s
	if fn := t.eng.OnThreadState; fn != nil {
		fn(t, s)
	}
}

// Name returns the label given at Spawn time.
func (t *Thread) Name() string { return t.name }

// Engine returns the engine this thread belongs to.
func (t *Thread) Engine() *Engine { return t.eng }

// Now returns the current virtual time.
func (t *Thread) Now() Time { return t.eng.now }

// start wraps fn in the thread's coroutine. The body recovers the killed
// unwind of a shutdown; any other panic escapes through next into Run.
func (t *Thread) start(fn func(*Thread)) {
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.coYield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killed); !ok {
					panic(r)
				}
			}
		}()
		fn(t)
		t.setState(StateDone)
	})
}

// yield suspends the thread's coroutine, returning control to the
// engine's dispatch, until the engine runs it again. It panics killed
// when the engine stops the coroutine instead.
func (t *Thread) yield() {
	if !t.coYield(struct{}{}) {
		panic(killed{})
	}
	t.setState(StateRunning)
}

// Sleep advances this thread's local time by d nanoseconds, letting other
// events run meanwhile. Negative durations are treated as zero.
//
// When the wake would be the very next event Run dispatches, the thread
// stays on its own stack and does in place what Run and dispatch would
// have done (Engine.wakesNext): the same state transitions, sequence
// number, clock and event count, with no coroutine switch.
//
//simcheck:hotpath every simulated delay passes through here; the inline wake stays allocation-free
func (t *Thread) Sleep(d Time) {
	e := t.eng
	if e.running != t {
		panic(fmt.Sprintf("sim: Sleep called on %q from outside its own context", t.name))
	}
	if d < 0 {
		d = 0
	}
	e.stats.Sleeps++
	t.setState(StateSleeping)
	w := e.now + d
	if e.wakesNext(w) {
		e.seq++
		e.now = w
		e.stats.Events++
		e.stats.InlineWakes++
		t.setState(StateRunning)
		return
	}
	e.atThread(w, t)
	t.yield()
}

// Park blocks the thread until another party calls Unpark. A thread parked
// forever when the event queue drains is reported as a deadlock by Run.
func (t *Thread) Park() {
	if t.eng.running != t {
		panic(fmt.Sprintf("sim: Park called on %q from outside its own context", t.name))
	}
	t.eng.stats.Parks++
	t.setState(StateParked)
	t.yield()
}

// Unpark schedules the parked thread to run again at virtual time at
// (clamped to now). Unparking a thread that is not parked, or twice before
// it runs, panics, as either indicates a scheduling bug.
func (t *Thread) Unpark(at Time) {
	if t.state != StateParked {
		panic(fmt.Sprintf("sim: Unpark of thread %q which is not parked", t.name))
	}
	if t.wake != nil {
		panic(fmt.Sprintf("sim: double Unpark of thread %q", t.name))
	}
	if at < t.eng.now {
		at = t.eng.now
	}
	t.wake = t.eng.atThread(at, t)
}

// UnparkCancel cancels a pending Unpark, leaving the thread parked again.
// It is a no-op if no wake is pending.
func (t *Thread) UnparkCancel() {
	if t.wake != nil {
		t.eng.q.cancelEvent(t.wake)
		t.wake = nil
		t.setState(StateParked)
	}
}

// Parked reports whether the thread is currently parked with no pending
// wake event.
func (t *Thread) Parked() bool { return t.state == StateParked && t.wake == nil }

// Done reports whether the thread function has returned.
func (t *Thread) Done() bool { return t.state == StateDone }

// SetDaemon marks the thread as a background daemon: if the event queue
// drains while it is parked, Run treats the simulation as complete instead
// of deadlocked (the thread is then terminated).
func (t *Thread) SetDaemon() { t.daemon = true }
