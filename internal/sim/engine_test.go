package sim

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine(1)
	if err := e.Run(); err != nil {
		t.Fatalf("empty run: %v", err)
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved with no events: %d", e.Now())
	}
}

func TestEngineEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.At(10, func() { order = append(order, 11) }) // same time: insertion order
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("got %v want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %d, want 30", e.Now())
	}
}

func TestThreadSleepAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.Spawn("a", func(th *Thread) {
		times = append(times, th.Now())
		th.Sleep(100)
		times = append(times, th.Now())
		th.Sleep(50)
		times = append(times, th.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if times[0] != 0 || times[1] != 100 || times[2] != 150 {
		t.Fatalf("times = %v", times)
	}
}

func TestThreadInterleaving(t *testing.T) {
	e := NewEngine(1)
	var log []string
	e.Spawn("a", func(th *Thread) {
		log = append(log, "a0")
		th.Sleep(10)
		log = append(log, "a10")
		th.Sleep(20)
		log = append(log, "a30")
	})
	e.Spawn("b", func(th *Thread) {
		log = append(log, "b0")
		th.Sleep(15)
		log = append(log, "b15")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestParkUnpark(t *testing.T) {
	e := NewEngine(1)
	var got Time
	var waiter *Thread
	waiter = e.Spawn("waiter", func(th *Thread) {
		th.Park()
		got = th.Now()
	})
	e.Spawn("waker", func(th *Thread) {
		th.Sleep(500)
		waiter.Unpark(th.Now() + 25)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 525 {
		t.Fatalf("waiter woke at %d, want 525", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("stuck", func(th *Thread) { th.Park() })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

// TestStopTerminatesParkedThreads checks what Stop leaves behind: the
// parked thread unwinds through its deferred calls, the thread due to
// start after Stop never runs its function, and both end done.
func TestStopTerminatesParkedThreads(t *testing.T) {
	e := NewEngine(1)
	unwound := false
	stuck := e.Spawn("stuck", func(th *Thread) {
		defer func() { unwound = true }()
		th.Park()
	})
	late := e.SpawnAt(200, "late", func(th *Thread) {
		t.Error("thread spawned past Stop ran its function")
	})
	e.At(100, func() { e.Stop() })
	if err := e.Run(); err != nil {
		t.Fatalf("stop should not be an error: %v", err)
	}
	if !unwound {
		t.Error("parked thread's deferred call did not run at shutdown")
	}
	dump := e.ThreadDump()
	for _, th := range []*Thread{stuck, late} {
		if !th.Done() {
			t.Errorf("%s: state %v after Stop, want done", th.Name(), th.State())
		}
		if !regexp.MustCompile(`(?m)^\s+` + th.Name() + `\s+done$`).MatchString(dump) {
			t.Errorf("%s not listed as done in the dump:\n%s", th.Name(), dump)
		}
	}
}

// TestRunReturnsThreadPanic checks that a simthread's panic comes back
// from Run as a PanicError naming the thread and the virtual time, with a
// dump taken before shutdown, and that the other threads are reaped.
func TestRunReturnsThreadPanic(t *testing.T) {
	e := NewEngine(1)
	var wq WaitQueue
	sleeper := e.Spawn("sleeper", func(th *Thread) { th.Sleep(100) })
	waiter := e.Spawn("waiter", func(th *Thread) { wq.Wait(th) })
	e.Spawn("bomb", func(th *Thread) {
		th.Sleep(5)
		panic("boom")
	})
	err := e.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v, want a *PanicError", err)
	}
	if pe.Value != "boom" || pe.Thread != "bomb" || pe.Time != 5 {
		t.Fatalf("got value %v thread %q time %d, want boom, bomb, 5", pe.Value, pe.Thread, pe.Time)
	}
	if !strings.Contains(err.Error(), `simthread "bomb" at virtual time 5`) {
		t.Errorf("error does not name the thread and time: %v", err)
	}
	if !regexp.MustCompile(`(?m)^\s+sleeper\s+sleeping$`).MatchString(pe.Dump) {
		t.Errorf("dump not taken before shutdown:\n%s", pe.Dump)
	}
	for _, th := range []*Thread{sleeper, waiter} {
		if !th.Done() {
			t.Errorf("%s: state %v after the failed run, want done", th.Name(), th.State())
		}
	}
}

// TestRunReturnsCallbackPanic checks that a panicking engine callback
// also comes back as a PanicError, with no thread named.
func TestRunReturnsCallbackPanic(t *testing.T) {
	e := NewEngine(1)
	e.At(7, func() { panic("cb") })
	var pe *PanicError
	if err := e.Run(); !errors.As(err, &pe) || pe.Thread != "" || pe.Time != 7 {
		t.Fatalf("Run returned %v, want a callback PanicError at time 7", err)
	}
}

func TestMaxEvents(t *testing.T) {
	e := NewEngine(1)
	e.MaxEvents = 10
	var tick func()
	tick = func() { e.After(1, tick) }
	e.After(1, tick)
	if err := e.Run(); err == nil {
		t.Fatal("expected MaxEvents error")
	}
}

func TestWaitQueueFIFO(t *testing.T) {
	e := NewEngine(1)
	var wq WaitQueue
	var order []string
	mk := func(name string, delay Time) {
		e.Spawn(name, func(th *Thread) {
			th.Sleep(delay)
			wq.Wait(th)
			order = append(order, name)
		})
	}
	mk("first", 1)
	mk("second", 2)
	mk("third", 3)
	e.Spawn("waker", func(th *Thread) {
		th.Sleep(10)
		for i := 0; i < 3; i++ {
			wq.WakeOne(th.Now())
			th.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestBarrier(t *testing.T) {
	e := NewEngine(1)
	b := &Barrier{N: 3, Release: 5}
	var done []Time
	for i := 0; i < 3; i++ {
		d := Time(10 * (i + 1))
		e.Spawn("t", func(th *Thread) {
			th.Sleep(d)
			b.Wait(th)
			done = append(done, th.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Last arrives at 30; everyone leaves at 35.
	for _, d := range done {
		if d != 35 {
			t.Fatalf("done times = %v, want all 35", done)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	e := NewEngine(1)
	b := &Barrier{N: 2}
	count := 0
	for i := 0; i < 2; i++ {
		e.Spawn("t", func(th *Thread) {
			for k := 0; k < 5; k++ {
				th.Sleep(Time(1 + th.ID()))
				b.Wait(th)
				count++
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		n := 1 + r.Intn(100)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestEngineDeterministicReplay(t *testing.T) {
	run := func(seed uint64) []Time {
		e := NewEngine(seed)
		var trace []Time
		var wq WaitQueue
		for i := 0; i < 4; i++ {
			e.Spawn("worker", func(th *Thread) {
				for k := 0; k < 20; k++ {
					th.Sleep(Time(e.Rand().Intn(50)))
					trace = append(trace, th.Now())
					if e.Rand().Intn(3) == 0 && wq.Len() > 0 {
						wq.WakeOne(th.Now())
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(99), run(99)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.AtTimer(100, func() { fired = true })
	e.At(50, func() { tm.Cancel() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if tm.When() != 100 {
		t.Fatalf("When() = %d", tm.When())
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	tm := e.AtTimer(10, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	tm.Cancel() // must be safe post-fire
}

func TestTimerZeroValue(t *testing.T) {
	var tm Timer
	if tm.Pending() {
		t.Fatal("zero Timer reports pending")
	}
	tm.Cancel() // must be a no-op, not a nil dereference
	if tm.When() != 0 {
		t.Fatalf("zero Timer When() = %d", tm.When())
	}
}

func TestTimerCancelThroughCopy(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.AtTimer(100, func() { fired = true })
	cp := tm
	if !tm.Pending() || !cp.Pending() {
		t.Fatal("armed timer not pending")
	}
	cp.Cancel()
	if tm.Pending() {
		t.Fatal("original handle still pending after cancelling a copy")
	}
	tm.Cancel() // a second cancel through the other handle is a no-op
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("timer cancelled through a copy fired")
	}
}

func TestTimerCancelAfterFireSparesReusedEvent(t *testing.T) {
	e := NewEngine(1)
	var log []string
	first := e.AtTimer(10, func() { log = append(log, "first") })
	e.At(20, func() {
		if first.Pending() {
			t.Error("fired timer still pending")
		}
		// The fired event's pooled object is free for reuse: arm a
		// second timer, then cancel the stale handle. Only the stale
		// handle's own event may be affected — and it already fired.
		second := e.AtTimer(30, func() { log = append(log, "second") })
		first.Cancel()
		if !second.Pending() {
			t.Error("stale Cancel disarmed a newer timer")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || log[0] != "first" || log[1] != "second" {
		t.Fatalf("fired %v, want [first second]", log)
	}
}

func TestSpawnAt(t *testing.T) {
	e := NewEngine(1)
	var started Time = -1
	e.SpawnAt(500, "late", func(th *Thread) { started = th.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if started != 500 {
		t.Fatalf("started at %d", started)
	}
}

func TestDaemonDoesNotDeadlock(t *testing.T) {
	e := NewEngine(1)
	var wq WaitQueue
	d := e.Spawn("daemon", func(th *Thread) {
		th.SetDaemon()
		for {
			wq.Wait(th)
		}
	})
	_ = d
	e.Spawn("app", func(th *Thread) { th.Sleep(100) })
	if err := e.Run(); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
}

func TestUnparkCancel(t *testing.T) {
	e := NewEngine(1)
	var waiter *Thread
	woke := false
	waiter = e.Spawn("w", func(th *Thread) {
		th.Park()
		woke = true
	})
	e.Spawn("controller", func(th *Thread) {
		th.Sleep(10)
		waiter.Unpark(th.Now() + 100)
		waiter.UnparkCancel()
		th.Sleep(500)
		waiter.Unpark(th.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Fatal("waiter never woke")
	}
}

func TestAfterScheduling(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 150 {
		t.Fatalf("After fired at %d", at)
	}
}

func TestEventsRunCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.EventsRun() != 5 {
		t.Fatalf("EventsRun = %d", e.EventsRun())
	}
}

func TestRandFork(t *testing.T) {
	r := NewRand(1)
	f1 := r.Fork()
	f2 := r.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams overlap: %d identical draws", same)
	}
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(0) should panic")
		}
	}()
	NewRand(1).Int63n(0)
}

// --- inline wakes ---

// wakeRun is what one run of a scenario leaves behind: everything an
// inline wake must reproduce exactly as the queued path produced it.
type wakeRun struct {
	now   Time
	log   []string // the scenario's own records and every state change
	err   string
	stats Stats // Events is EventsRun
}

// wakeScenario sets an engine's limits and spawns its threads. It calls
// sleep instead of Thread.Sleep and records through logf.
type wakeScenario func(e *Engine, sleep func(*Thread, Time), logf func(string, ...interface{}))

// runLogged runs a scenario's setup on a fresh engine whose OnThreadState
// observer logs every transition with its thread, state and time, and
// returns what the run left behind.
func runLogged(setup func(e *Engine, logf func(string, ...interface{}))) wakeRun {
	e := NewEngine(1)
	var r wakeRun
	logf := func(format string, args ...interface{}) {
		r.log = append(r.log, fmt.Sprintf(format, args...))
	}
	e.OnThreadState = func(th *Thread, s ThreadState) { logf("%s:%v@%d", th.Name(), s, e.Now()) }
	setup(e, logf)
	if err := e.Run(); err != nil {
		r.err = err.Error()
	}
	r.now, r.stats = e.Now(), e.Stats()
	return r
}

// runWake runs a scenario on a fresh engine. With queued set, every Sleep
// first arms and cancels a timer at the current instant: Sleep's check
// counts cancelled events, so that bounds the queue at now and forces the
// queued path, while the cancelled event itself never runs or counts.
func runWake(sc wakeScenario, queued bool) wakeRun {
	return runLogged(func(e *Engine, logf func(string, ...interface{})) {
		sleep := func(th *Thread, d Time) {
			if queued {
				e.AtTimer(e.Now(), func() {}).Cancel()
			}
			th.Sleep(d)
		}
		sc(e, sleep, logf)
	})
}

// checkInlineMatchesQueued runs a scenario on both paths, requires the
// same events, clock, log and error text, and returns the inline run.
func checkInlineMatchesQueued(t *testing.T, sc wakeScenario) wakeRun {
	t.Helper()
	in, q := runWake(sc, false), runWake(sc, true)
	if q.stats.InlineWakes != 0 {
		t.Fatalf("queued run woke %d sleeps inline", q.stats.InlineWakes)
	}
	if in.stats.Events != q.stats.Events || in.stats.Sleeps != q.stats.Sleeps || in.now != q.now || in.err != q.err {
		t.Fatalf("inline run: %d events, %d sleeps, clock %d, error %q\nqueued run: %d events, %d sleeps, clock %d, error %q",
			in.stats.Events, in.stats.Sleeps, in.now, in.err, q.stats.Events, q.stats.Sleeps, q.now, q.err)
	}
	if strings.Join(in.log, "\n") != strings.Join(q.log, "\n") {
		t.Fatalf("logs differ\ninline: %v\nqueued: %v", in.log, q.log)
	}
	return in
}

func TestInlineWakeSleepZeroYieldsToSameInstant(t *testing.T) {
	in := checkInlineMatchesQueued(t, func(e *Engine, sleep func(*Thread, Time), logf func(string, ...interface{})) {
		e.Spawn("a", func(th *Thread) {
			e.At(th.Now(), func() { logf("event@%d", e.Now()) })
			sleep(th, 0) // the event is queued at now: it runs first
			logf("a@%d", th.Now())
			sleep(th, 0) // nothing queued: wakes in place
			logf("a@%d", th.Now())
		})
	})
	if in.stats.InlineWakes != 1 || in.log[2] != "event@0" {
		t.Fatalf("inline wakes %d, log %v; want 1, the event before a's wake", in.stats.InlineWakes, in.log)
	}
}

func TestInlineWakeTieGoesToEarlierSeq(t *testing.T) {
	in := checkInlineMatchesQueued(t, func(e *Engine, sleep func(*Thread, Time), logf func(string, ...interface{})) {
		e.At(100, func() { logf("e100@%d", e.Now()) })
		e.At(120, func() { logf("e120@%d", e.Now()) })
		e.Spawn("a", func(th *Thread) {
			sleep(th, 100) // ties the event at 100, which was queued first
			logf("a@%d", th.Now())
			sleep(th, 19) // strictly before the event at 120
			logf("a@%d", th.Now())
			sleep(th, 1) // ties it again
			logf("a@%d", th.Now())
		})
	})
	if in.stats.InlineWakes != 1 {
		t.Fatalf("inline wakes %d, want 1 (log %v)", in.stats.InlineWakes, in.log)
	}
}

// TestInlineWakeAcrossWheelLevels sleeps towards events queued at every
// wheel level and in the far heap, and queues new events from a thread
// whose clock has run ahead of the wheel's anchor.
func TestInlineWakeAcrossWheelLevels(t *testing.T) {
	in := checkInlineMatchesQueued(t, func(e *Engine, sleep func(*Thread, Time), logf func(string, ...interface{})) {
		for _, at := range []Time{40, 1 << 8, 5 << 12, 3 << 18, 1 << 24, 1 << 30, 1<<30 + 1} {
			at := at
			e.At(at, func() { logf("e%d@%d", at, e.Now()) })
		}
		e.Spawn("a", func(th *Thread) {
			for _, d := range []Time{39, 1, 1, 200, 20000, 1 << 19, 1 << 20, 1 << 22, 1 << 24, 1 << 29, 1 << 30} {
				sleep(th, d)
				logf("a@%d", th.Now())
				at := th.Now() + d/2 + 1
				e.At(at, func() { logf("late%d@%d", at, e.Now()) })
			}
		})
		e.Spawn("b", func(th *Thread) {
			for i := 0; i < 40; i++ {
				sleep(th, Time(1)<<uint(i%31))
				logf("b@%d", th.Now())
			}
		})
	})
	if in.stats.InlineWakes == 0 {
		t.Fatal("no sleep woke inline")
	}
}

func TestInlineWakeMaxTime(t *testing.T) {
	in := checkInlineMatchesQueued(t, func(e *Engine, sleep func(*Thread, Time), logf func(string, ...interface{})) {
		e.MaxTime = 1000
		e.Spawn("a", func(th *Thread) {
			sleep(th, 1000) // w == MaxTime runs
			logf("a@%d", th.Now())
			sleep(th, 1) // w == MaxTime+1 fails the run
			logf("a@%d", th.Now())
		})
	})
	if in.stats.InlineWakes != 1 || in.err != "sim: exceeded MaxTime 1000 at event time 1001" {
		t.Fatalf("inline wakes %d, error %q", in.stats.InlineWakes, in.err)
	}
}

func TestInlineWakeMaxEvents(t *testing.T) {
	in := checkInlineMatchesQueued(t, func(e *Engine, sleep func(*Thread, Time), logf func(string, ...interface{})) {
		e.MaxEvents = 3 // the spawn and two wakes; the third wake exceeds it
		e.Spawn("a", func(th *Thread) {
			for i := 0; i < 5; i++ {
				sleep(th, 10)
				logf("a@%d", th.Now())
			}
		})
	})
	if in.stats.InlineWakes != 2 || in.stats.Events != 4 || in.err != "sim: exceeded MaxEvents 3" {
		t.Fatalf("inline wakes %d, %d events, error %q", in.stats.InlineWakes, in.stats.Events, in.err)
	}
}

func TestInlineWakeAfterStop(t *testing.T) {
	in := checkInlineMatchesQueued(t, func(e *Engine, sleep func(*Thread, Time), logf func(string, ...interface{})) {
		e.Spawn("a", func(th *Thread) {
			defer func() { logf("a unwound@%d", th.Now()) }()
			e.Stop()
			sleep(th, 10)
			logf("a ran past Stop")
		})
	})
	if in.stats.InlineWakes != 0 || in.stats.Events != 1 || in.err != "" {
		t.Fatalf("inline wakes %d, %d events, error %q", in.stats.InlineWakes, in.stats.Events, in.err)
	}
}

// TestInlineWakeWatchdogStride: with the watchdog armed, the sleeps that
// would land on its check stride go through Run, which checks the wall
// clock; every other sleep wakes in place.
func TestInlineWakeWatchdogStride(t *testing.T) {
	const sleeps = 3000
	in := checkInlineMatchesQueued(t, func(e *Engine, sleep func(*Thread, Time), logf func(string, ...interface{})) {
		e.MaxWall = time.Hour
		e.Spawn("a", func(th *Thread) {
			for i := 0; i < sleeps; i++ {
				sleep(th, 1)
			}
			logf("a@%d", th.Now())
		})
	})
	// The i-th sleep (from 1) starts with i events run: the spawn and
	// i-1 wakes. Sleeps 1024 and 2048 fall on the stride.
	if in.stats.InlineWakes != sleeps-2 {
		t.Fatalf("inline wakes %d, want %d", in.stats.InlineWakes, sleeps-2)
	}
}

func TestInlineWakePanicError(t *testing.T) {
	in := checkInlineMatchesQueued(t, func(e *Engine, sleep func(*Thread, Time), logf func(string, ...interface{})) {
		e.Spawn("a", func(th *Thread) {
			sleep(th, 5)
			sleep(th, 7)
			panic("boom")
		})
	})
	if in.stats.InlineWakes != 2 || !strings.Contains(in.err, `simthread "a" at virtual time 12 after 3 events: boom`) {
		t.Fatalf("inline wakes %d, error %q", in.stats.InlineWakes, in.err)
	}
}

// TestStatsCountDispatches: a thread that parks and a thread that sleeps
// past it. Every dispatch is a switch, and the sleeps that wake with
// nothing queued before them do not switch.
func TestStatsCountDispatches(t *testing.T) {
	e := NewEngine(1)
	var p *Thread
	p = e.Spawn("parker", func(th *Thread) { th.Park() })
	e.Spawn("sleeper", func(th *Thread) {
		th.Sleep(10) // wakes in place
		p.Unpark(th.Now() + 5)
		th.Sleep(10) // the unpark runs first
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := Stats{Events: 5, Dispatches: 4, Sleeps: 2, InlineWakes: 1, Parks: 1}
	if got := e.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}
