// Package sim implements a deterministic discrete-event simulator with
// cooperative simulated threads ("simthreads").
//
// The engine owns a virtual clock measured in integer nanoseconds and an
// event queue ordered by (time, sequence). Exactly one simthread executes at
// any moment; a simthread runs until it blocks (Sleep, Park) or returns.
// Ties are broken by insertion order, so a simulation with a fixed seed is
// fully reproducible.
//
// Each simthread is a stdlib iter.Pull coroutine, so the simulation is
// sequential and race-free by construction and the Go scheduler never
// decides who runs next. A simthread that blocks does not switch back to
// Run: it runs the event loop on its own stack (Engine.loop). Engine
// callbacks and quiet wakes run in place, its own wake returns with no
// switch, and another simthread's wake switches straight into that
// thread. Such switches chain: Run switched into A, whose loop switched
// into B, and so on up to the running thread. A wake for a thread lower
// in that chain, blocked inside its own switch, yields back down the
// chain to it instead. A blocked thread leaves to Run
// the events on which Run's checks may fire — Stop, MaxEvents, the
// wall-clock watchdog and an empty queue — so every event is still taken
// once, in (time, sequence) order, and runs as Run would have run it.
// Stats counts the switches.
//
// A waiter parked in WaitQueue.WaitUntil whose condition still fails when
// it is woken is never resumed: the loop re-queues it in place, exactly
// as the thread's own wait loop would have done (quiet wakes).
//
// sim is the foundation of the deterministic core (docs/ARCHITECTURE.md).
// Like every core package it uses no goroutines, channels or sync
// primitives; everything above it gets concurrency exclusively through
// this scheduler.
//
// The module's go directive stays at 1.22 while iter needs 1.23, so the
// file that imports iter carries a //go:build go1.23 constraint, which
// raises that file's language version on its own.
package sim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time = int64

// Engine is a deterministic discrete-event simulation engine. The zero value
// is not usable; create engines with NewEngine.
type Engine struct {
	now Time
	seq uint64
	q   eventQueue
	rng *Rand

	threads []*Thread
	running *Thread // thread whose code is executing, nil while an event is taken
	// handoff is the thread whose wake a loop higher in the hand-off
	// chain took while it was blocked inside a switch; the chain unwinds
	// down to it (loop).
	handoff *Thread

	stopped   bool
	failed    *PanicError // the panic that ended the run, if one did
	stats     Stats
	wallStart time.Time // when Run started, for the watchdog

	// MaxEvents aborts the run when exceeded (safety against runaway
	// simulations). Zero means no limit.
	MaxEvents uint64
	// MaxWall aborts the run with a thread-state dump once Run has
	// consumed this much real (wall-clock) time — a watchdog so chaos
	// soaks and runaway simulations cannot hang CI. Zero means no limit.
	// The check runs every wallCheckEvery events, so very cheap events
	// may overshoot the budget slightly.
	MaxWall time.Duration

	// OnThreadState, when set, observes every simthread scheduling-state
	// transition (the telemetry plane's sched track). Purely
	// observational: it must not touch engine state.
	OnThreadState func(t *Thread, s ThreadState)
}

// wallCheckEvery is how many events pass between wall-clock watchdog
// checks; a power of two keeps the modulo a mask.
const wallCheckEvery = 1024

// NewEngine returns an engine whose random stream is derived from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRand(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random stream.
func (e *Engine) Rand() *Rand { return e.rng }

// EventsRun reports how many events have run so far.
func (e *Engine) EventsRun() uint64 { return e.stats.Events }

// Stats are the engine's scheduling counters. They are a pure function of
// the simulation, as deterministic as its output.
type Stats struct {
	// Events counts the events run (EventsRun).
	Events uint64
	// Dispatches counts the wakes that ran a simthread: a switch into
	// it, or its own wake taken in its own event loop.
	Dispatches uint64
	// Switches counts coroutine switches, into a simthread and back.
	Switches uint64
	// Sleeps counts Thread.Sleep calls.
	Sleeps uint64
	// Parks counts Thread.Park calls. A quiet wake re-parks without one.
	Parks uint64
	// QuietWakes counts the wakes of WaitUntil waiters whose condition
	// still failed, re-queued in place with no switch.
	QuietWakes uint64
}

// Stats returns the scheduling counters so far.
func (e *Engine) Stats() Stats { return e.stats }

// free reports whether none of Run's checks — Stop, MaxEvents or the
// wall-clock watchdog's stride — could fire on the next event. Only then
// may a blocked simthread take that event in its own loop.
func (e *Engine) free() bool {
	return !e.stopped &&
		(e.MaxEvents == 0 || e.stats.Events < e.MaxEvents) &&
		(e.MaxWall <= 0 || e.stats.Events%wallCheckEvery != 0)
}

// schedule allocates a pooled event at time t (clamped to now) and queues
// it. The caller fills in exactly one callback field afterwards; nothing
// fires until the caller's code returns or blocks, so late binding is safe.
func (e *Engine) schedule(t Time) *event {
	if t < e.now {
		t = e.now
	}
	ev := e.q.newEvent()
	ev.when = t
	ev.seq = e.seq
	e.seq++
	e.q.push(ev)
	return ev
}

// At schedules fn to run at virtual time t (>= Now). fn runs in engine
// context and must not block; use Spawn for blocking activities.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t).fn = fn
}

// AtArg schedules fn(arg) at virtual time t. It is the allocation-free
// variant of At for the common "one callback, one operand" pattern: the
// caller reuses a long-lived fn and passes the operand through arg, so no
// closure is allocated per call.
func (e *Engine) AtArg(t Time, fn func(interface{}), arg interface{}) {
	ev := e.schedule(t)
	ev.argFn = fn
	ev.arg = arg
}

// atThread schedules a wake of th at time t, the closure-free event that
// Sleep, Unpark and SpawnAt queue.
func (e *Engine) atThread(t Time, th *Thread) *event {
	ev := e.schedule(t)
	ev.thread = th
	return ev
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Timer is a cancellable handle on a scheduled callback. It is a small
// value: AtTimer and AtTimerArg return it by value, so arming a timer
// allocates nothing, and copies of a handle all refer to the same event.
// The zero Timer refers to no event; Cancel on it is a no-op and Pending
// reports false. The handle stays valid after the callback fires: Cancel
// becomes a no-op (the generation snapshot detects that the pooled event
// moved on).
type Timer struct {
	q   *eventQueue
	ev  *event
	gen uint32
}

// AtTimer schedules fn at time t and returns a handle that can cancel it.
func (e *Engine) AtTimer(t Time, fn func()) Timer {
	ev := e.schedule(t)
	ev.fn = fn
	return Timer{q: &e.q, ev: ev, gen: ev.gen}
}

// AtTimerArg schedules fn(arg) at time t and returns a cancellable
// handle — the closure-free variant of AtTimer (see AtArg): the caller
// reuses a long-lived fn and passes the operand through arg.
func (e *Engine) AtTimerArg(t Time, fn func(interface{}), arg interface{}) Timer {
	ev := e.schedule(t)
	ev.argFn = fn
	ev.arg = arg
	return Timer{q: &e.q, ev: ev, gen: ev.gen}
}

// Pending reports whether the callback is still due: armed, not yet
// fired and not cancelled.
func (tm Timer) Pending() bool {
	return tm.ev != nil && tm.ev.gen == tm.gen
}

// Cancel prevents the callback from running. It is a no-op on the zero
// Timer, after the callback fired and after an earlier Cancel.
func (tm Timer) Cancel() {
	if !tm.Pending() {
		return // no event, or already fired or cancelled
	}
	tm.q.cancel(tm.ev)
}

// Spawn creates a simthread that begins executing fn at the current virtual
// time. fn receives the thread handle it must use for all blocking
// operations.
func (e *Engine) Spawn(name string, fn func(t *Thread)) *Thread {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt creates a simthread that begins executing fn at virtual time
// start.
func (e *Engine) SpawnAt(start Time, name string, fn func(t *Thread)) *Thread {
	t := &Thread{eng: e, id: int32(len(e.threads)), name: name, state: StateNew}
	e.threads = append(e.threads, t)
	t.start(fn)
	e.atThread(start, t)
	return t
}

// quietWake does, in engine context, what a WaitUntil waiter woken with
// its condition still false would do on its own stack: run, go back to
// the tail of its queue and park again. No coroutine switch happens.
//
//simcheck:hotpath runs once per wake that finds nothing to do; stays allocation-free
func (e *Engine) quietWake(t *Thread) {
	e.stats.QuietWakes++
	t.setState(StateRunning)
	t.untilQ.push(t)
	t.setState(StateParked)
}

// Run runs events until the queue is empty or the simulation is
// stopped. It returns an error if simthreads remain parked when no events
// are left (a deadlock), if a configured limit was exceeded, or, as a
// *PanicError, if an event panicked.
func (e *Engine) Run() (err error) {
	defer e.shutdown()
	defer func() {
		if r := recover(); r != nil {
			e.fail(r)
		}
		if e.failed != nil {
			err, e.failed = e.failed, nil
		}
	}()
	e.wallStart = time.Now() //simcheck:allow nodeterm wall-clock watchdog; never feeds simulation state
	if err := e.loop(nil); err != nil || e.stopped {
		return err
	}
	var parked []string
	for _, t := range e.threads {
		if (t.state == StateParked || t.state == StateSleeping) && !t.daemon {
			parked = append(parked, t.name)
		}
	}
	if len(parked) > 0 {
		sort.Strings(parked)
		return fmt.Errorf("sim: deadlock: no events left but %d thread(s) blocked: %s",
			len(parked), strings.Join(parked, ", "))
	}
	return nil
}

// loop takes events in (time, seq) order and runs each by kind. Run runs
// it with self nil; a simthread that blocks runs it on its own stack, with
// self set, until its own wake:
//
//   - an engine callback runs in place, with no simthread running;
//   - a wake that finds a WaitUntil condition false is re-queued in
//     place (quietWake);
//   - self's own wake returns, and self runs on with no switch;
//   - another simthread's wake switches straight into it. If that thread
//     is itself blocked inside a switch lower in the current hand-off
//     chain (inNext), self yields back down the chain to it instead.
//
// A blocked thread takes an event only when none of Run's checks could
// fire on it (free); otherwise it yields, and the chain unwinds to Run,
// which takes that event itself. Either way, each event is taken once, in
// order, and runs exactly as Run would have run it.
//
//simcheck:hotpath runs every event, and every blocked simthread's wait; stays allocation-free
func (e *Engine) loop(self *Thread) error {
	for {
		if !e.free() || e.q.len() == 0 {
			if self != nil {
				self.yield()
				return nil
			}
			if e.stopped || e.q.len() == 0 {
				return nil
			}
			if e.MaxWall > 0 && e.stats.Events%wallCheckEvery == 0 {
				if err := e.watchdog(); err != nil { //simcheck:allow hotalloc builds its error once, when the watchdog aborts the run
					return err
				}
			}
		}
		ev := e.q.pop()
		if ev.when < e.now {
			panic(fmt.Sprintf("sim: time went backwards: %d < %d", ev.when, e.now))
		}
		e.now = ev.when
		e.stats.Events++
		if e.MaxEvents > 0 && e.stats.Events > e.MaxEvents {
			e.q.recycle(ev)
			return fmt.Errorf("sim: exceeded MaxEvents %d", e.MaxEvents) //simcheck:allow hotalloc runs once, when the run exceeds MaxEvents
		}
		// Copy the callback out and recycle before invoking, so a
		// callback that cancels its own (already fired) timer sees the
		// generation bump, and the object is immediately reusable by
		// events the callback schedules.
		th := ev.thread
		if th == nil {
			if fn := ev.argFn; fn != nil {
				arg := ev.arg
				e.q.recycle(ev)
				fn(arg)
			} else {
				fn := ev.fn
				e.q.recycle(ev)
				fn()
			}
			continue
		}
		if th.wake == ev {
			th.wake = nil
		}
		e.q.recycle(ev)
		if th.state == StateDone {
			continue
		}
		if th.until != nil && !th.until.Ready() {
			e.quietWake(th)
			continue
		}
		th.setState(StateRunning)
		e.stats.Dispatches++
		switch {
		case th == self: // its own wake: run on
		case th.inNext: // lower in the chain: hand the wake down to it
			e.handoff = th
			self.yield()
			return nil
		default:
			if self == nil {
				e.switchTo(th)
				continue
			}
			self.inNext = true
			e.switchTo(th)
			self.inNext = false
			// th returned, or yielded: to leave an event to Run, or to
			// hand a wake down the chain, to self or further down.
			if e.handoff == nil {
				continue
			}
			if e.handoff != self {
				self.yield()
				return nil
			}
			e.handoff = nil
		}
		e.running = self
		return nil
	}
}

// fail records a panic that escaped an event as the run's error and stops
// the run. It snapshots the failing event's time and count and the thread
// states now, before shutdown marks every thread done.
func (e *Engine) fail(r interface{}) {
	pe := &PanicError{Value: r, Time: e.now, Events: e.stats.Events, Dump: e.ThreadDump()}
	if e.running != nil {
		pe.Thread = e.running.name
	}
	e.failed = pe
	e.stopped = true
}

// watchdog fails the run, with a thread dump, once Run has used up MaxWall
// of real time.
func (e *Engine) watchdog() error {
	//simcheck:allow nodeterm wall-clock watchdog; aborts hung runs, never feeds simulation state
	if elapsed := time.Since(e.wallStart); elapsed > e.MaxWall {
		return fmt.Errorf("sim: wall-clock watchdog: run exceeded %v (elapsed %v) at virtual time %d after %d events\n%s",
			e.MaxWall, elapsed.Round(time.Millisecond), e.now, e.stats.Events, e.ThreadDump())
	}
	return nil
}

// switchTo runs t's coroutine until t returns, or yields: to hand a wake
// down the chain, or to leave an event to Run.
//
//simcheck:hotpath runs once per switch into a simthread; stays allocation-free
func (e *Engine) switchTo(t *Thread) {
	e.stats.Switches += 2 // into t, and back out when it yields or returns
	e.running = t
	t.next()
	e.running = nil
}

// ThreadDump renders every simthread's name and state, one per line — the
// diagnostic attached to watchdog aborts.
func (e *Engine) ThreadDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "thread states (%d threads):\n", len(e.threads))
	for _, t := range e.threads {
		fmt.Fprintf(&b, "  %-32s %s\n", t.name, t.state)
	}
	return b.String()
}

// Stop halts the simulation: Run returns after the current event completes
// and all blocked simthreads are terminated. Safe to call from engine
// callbacks; from simthread context prefer calling Stop and then parking.
func (e *Engine) Stop() { e.stopped = true }

// shutdown stops every unfinished simthread and recycles any events left
// in the queue (releasing the closures they reference). A blocked thread
// unwinds through its deferred calls; one that never ran is retired
// without starting its function. Either way it ends marked done.
func (e *Engine) shutdown() {
	for _, t := range e.threads {
		if t.state != StateDone {
			t.stop()
			t.setState(StateDone)
		}
	}
	e.q.drain()
}

// PanicError is Run's error when a panic escapes an event: a
// simthread's function or an engine callback. It names where and when
// the simulation failed.
type PanicError struct {
	Value  interface{} // the panic value
	Thread string      // the running simthread's name; empty for an engine callback
	Time   Time        // virtual time of the failing event
	Events uint64      // events run, the failing one included
	Dump   string      // ThreadDump taken before shutdown
}

func (p *PanicError) Error() string {
	where := "engine callback"
	if p.Thread != "" {
		where = fmt.Sprintf("simthread %q", p.Thread)
	}
	return fmt.Sprintf("sim: panic in %s at virtual time %d after %d events: %v\n%s",
		where, p.Time, p.Events, p.Value, p.Dump)
}
