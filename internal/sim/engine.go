// Package sim implements a deterministic discrete-event simulator with
// cooperative simulated threads ("simthreads").
//
// The engine owns a virtual clock measured in integer nanoseconds and an
// event queue ordered by (time, sequence). Exactly one simthread executes at
// any moment; a simthread runs until it blocks (Sleep, Park) or returns, at
// which point control transfers back to the engine, which dispatches the
// next event. Ties are broken by insertion order, so a simulation with a
// fixed seed is fully reproducible.
//
// Each simthread is a stdlib iter.Pull coroutine: dispatching a thread
// switches straight into it, and blocking switches straight back, so the
// simulation is sequential and race-free by construction and the Go
// scheduler never decides who runs next. A Sleep whose wake is the next
// event anyway does not return to the engine at all: the thread advances
// the clock in place, exactly as the dispatch would have, and runs on
// without a switch (Stats counts these inline wakes). Symmetrically, a
// waiter parked in WaitQueue.WaitUntil whose condition still fails when
// it is woken is never switched into: the engine re-queues it in place,
// exactly as the thread's own wait loop would have (quiet wakes).
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
	running *Thread // thread whose coroutine is executing, nil if engine runs

	stopped bool
	stats   Stats

	// MaxEvents aborts the run when exceeded (safety against runaway
	// simulations). Zero means no limit.
	MaxEvents uint64
	// MaxTime aborts the run once the clock passes it. Zero means no limit.
	MaxTime Time
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

// EventsRun reports how many events have been dispatched so far.
func (e *Engine) EventsRun() uint64 { return e.stats.Events }

// Stats are the engine's scheduling counters. They are a pure function of
// the simulation, as deterministic as its output.
type Stats struct {
	// Events counts the events run, inline wakes included (EventsRun).
	Events uint64
	// Dispatches counts switches into a simthread's coroutine.
	Dispatches uint64
	// Sleeps counts Thread.Sleep calls.
	Sleeps uint64
	// InlineWakes counts the Sleeps whose wake was the next event and
	// ran in place, with no switch.
	InlineWakes uint64
	// Parks counts Thread.Park calls. A quiet wake re-parks without one.
	Parks uint64
	// QuietWakes counts the wakes of WaitUntil waiters whose condition
	// still failed, re-queued by the engine with no switch.
	QuietWakes uint64
}

// Stats returns the scheduling counters so far.
func (e *Engine) Stats() Stats { return e.stats }

// wakesNext reports whether a dispatch of the running thread at w would be
// the very next thing Run does: the queue holds nothing at or before w, and
// no check of Run's loop — Stop, MaxTime, MaxEvents or the wall-clock
// watchdog's stride — would fire on that event. Sleep then wakes in place.
// Sleep outside its thread's own dispatch (engine shutdown included)
// panics before asking.
func (e *Engine) wakesNext(w Time) bool {
	return !e.stopped &&
		(e.MaxTime <= 0 || w <= e.MaxTime) &&
		(e.MaxEvents == 0 || e.stats.Events < e.MaxEvents) &&
		(e.MaxWall <= 0 || e.stats.Events%wallCheckEvery != 0) &&
		e.q.before(w)
}

// schedule allocates a pooled event at time t (clamped to now) and queues
// it. The caller fills in exactly one callback field afterwards; nothing
// fires until control returns to Run, so late binding is safe.
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

// atThread schedules a dispatch of th at time t — the closure-free form of
// At(t, func() { e.dispatch(th) }) used by Sleep, Unpark and SpawnAt.
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
// moved on) and When still reports the scheduled time.
type Timer struct {
	q    *eventQueue
	ev   *event
	gen  uint32
	when Time
}

// AtTimer schedules fn at time t and returns a handle that can cancel it.
func (e *Engine) AtTimer(t Time, fn func()) Timer {
	ev := e.schedule(t)
	ev.fn = fn
	return Timer{q: &e.q, ev: ev, gen: ev.gen, when: ev.when}
}

// AtTimerArg schedules fn(arg) at time t and returns a cancellable
// handle — the closure-free variant of AtTimer (see AtArg): the caller
// reuses a long-lived fn and passes the operand through arg.
func (e *Engine) AtTimerArg(t Time, fn func(interface{}), arg interface{}) Timer {
	ev := e.schedule(t)
	ev.argFn = fn
	ev.arg = arg
	return Timer{q: &e.q, ev: ev, gen: ev.gen, when: ev.when}
}

// When returns the scheduled fire time (zero for the zero Timer).
func (tm Timer) When() Time { return tm.when }

// Pending reports whether the callback is still due: armed, not yet
// fired and not cancelled.
func (tm Timer) Pending() bool {
	return tm.ev != nil && tm.ev.gen == tm.gen && !tm.ev.cancelled
}

// Cancel prevents the callback from running. It is a no-op on the zero
// Timer, after the callback fired and after an earlier Cancel.
func (tm Timer) Cancel() {
	if tm.ev == nil || tm.ev.gen != tm.gen {
		return // no event, or already fired (or cancelled and compacted away)
	}
	tm.q.cancelEvent(tm.ev)
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

// dispatch switches into t's coroutine and returns once t blocks or
// finishes. A WaitUntil waiter whose condition still fails is re-queued
// instead (quietWake).
//
//simcheck:hotpath runs once per thread wakeup; stays allocation-free
func (e *Engine) dispatch(t *Thread) {
	if t.state == StateDone {
		return
	}
	if t.until != nil && !t.until.Ready() {
		e.quietWake(t)
		return
	}
	t.setState(StateRunning)
	e.stats.Dispatches++
	e.running = t
	t.next()
	e.running = nil
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

// Run dispatches events until the queue is empty or the simulation is
// stopped. It returns an error if simthreads remain parked when no events
// are left (a deadlock), if a configured limit was exceeded, or, as a
// *PanicError, if a dispatched event panicked.
func (e *Engine) Run() (err error) {
	defer e.shutdown()
	defer func() {
		if r := recover(); r != nil {
			// Snapshot before shutdown marks every thread done.
			pe := &PanicError{Value: r, Time: e.now, Events: e.stats.Events, Dump: e.ThreadDump()}
			if e.running != nil {
				pe.Thread = e.running.name
			}
			err = pe
		}
	}()
	wallStart := time.Now() //simcheck:allow nodeterm wall-clock watchdog; never feeds simulation state
	for !e.stopped {
		ev := e.q.pop()
		if ev == nil {
			break
		}
		if e.MaxTime > 0 && ev.when > e.MaxTime {
			e.q.recycle(ev)
			return fmt.Errorf("sim: exceeded MaxTime %d at event time %d", e.MaxTime, ev.when)
		}
		if e.MaxWall > 0 && e.stats.Events%wallCheckEvery == 0 {
			//simcheck:allow nodeterm wall-clock watchdog; aborts hung runs, never feeds simulation state
			if elapsed := time.Since(wallStart); elapsed > e.MaxWall {
				e.q.recycle(ev)
				return fmt.Errorf("sim: wall-clock watchdog: run exceeded %v (elapsed %v) at virtual time %d after %d events\n%s",
					e.MaxWall, elapsed.Round(time.Millisecond), e.now, e.stats.Events, e.ThreadDump())
			}
		}
		if ev.when < e.now {
			panic(fmt.Sprintf("sim: time went backwards: %d < %d", ev.when, e.now))
		}
		e.now = ev.when
		e.stats.Events++
		if e.MaxEvents > 0 && e.stats.Events > e.MaxEvents {
			e.q.recycle(ev)
			return fmt.Errorf("sim: exceeded MaxEvents %d", e.MaxEvents)
		}
		// Copy the callback out and recycle before invoking, so a
		// callback that cancels its own (already fired) timer sees the
		// generation bump, and the object is immediately reusable by
		// events the callback schedules.
		switch {
		case ev.thread != nil:
			th := ev.thread
			if th.wake == ev {
				th.wake = nil
			}
			e.q.recycle(ev)
			e.dispatch(th)
		case ev.argFn != nil:
			fn, arg := ev.argFn, ev.arg
			e.q.recycle(ev)
			fn(arg)
		default:
			fn := ev.fn
			e.q.recycle(ev)
			fn()
		}
	}
	if e.stopped {
		return nil
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

// PanicError is Run's error when a panic escapes a dispatched event: a
// simthread's function or an engine callback. It names where and when
// the simulation failed.
type PanicError struct {
	Value  interface{} // the panic value
	Thread string      // the running simthread's name; empty for an engine callback
	Time   Time        // virtual time of the failing event
	Events uint64      // events dispatched, the failing one included
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
