package sim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
		wq.WakeAll(th.Now())
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
		for i := 0; i < 4; i++ {
			e.Spawn("worker", func(th *Thread) {
				for k := 0; k < 20; k++ {
					th.Sleep(Time(e.Rand().Intn(50)))
					trace = append(trace, th.Now())
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

// --- scheduler records ---

// wakeRun is what one run of a scenario leaves behind: everything a
// shortcut of the scheduler must reproduce exactly.
type wakeRun struct {
	now   Time
	log   []string // the scenario's own records and every state change
	err   string
	stats Stats // Events is EventsRun
}

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

// record renders what a run must reproduce: clock, events, error text and
// the log, one record a line.
func (r wakeRun) record() string {
	var b strings.Builder
	fmt.Fprintf(&b, "clock %d\nevents %d\nerror %q\n", r.now, r.stats.Events, r.err)
	for _, l := range r.log {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// checkRecord requires a run to match the record testdata/sched keeps
// for the calling test. The records were made by the scheduler that took
// every event in Run and switched into and back out of a simthread for
// each of its wakes, so they pin the order that every shortcut of it —
// quiet wakes, events taken in a blocked thread's own loop — must
// reproduce.
func checkRecord(t *testing.T, r wakeRun) {
	t.Helper()
	path := filepath.Join("testdata", "sched", strings.ReplaceAll(t.Name(), "/", "_")+".txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := r.record()
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s: run parts from the record at line %d: got %q, want %q", path, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: run has %d lines, the record %d", path, len(g), len(w))
}

// checkLogged runs a scenario, requires it to match its record and
// returns the run.
func checkLogged(t *testing.T, setup func(e *Engine, logf func(string, ...interface{}))) wakeRun {
	t.Helper()
	r := runLogged(setup)
	checkRecord(t, r)
	return r
}

func TestSleepZeroYieldsToSameInstant(t *testing.T) {
	in := checkLogged(t, func(e *Engine, logf func(string, ...interface{})) {
		e.Spawn("a", func(th *Thread) {
			e.At(th.Now(), func() { logf("event@%d", e.Now()) })
			th.Sleep(0) // the event is queued at now: it runs first
			logf("a@%d", th.Now())
			th.Sleep(0) // nothing queued: its own wake is next
			logf("a@%d", th.Now())
		})
	})
	if in.log[2] != "event@0" {
		t.Fatalf("log %v; want the event before a's wake", in.log)
	}
}

func TestSleepTieGoesToEarlierSeq(t *testing.T) {
	checkLogged(t, func(e *Engine, logf func(string, ...interface{})) {
		e.At(100, func() { logf("e100@%d", e.Now()) })
		e.At(120, func() { logf("e120@%d", e.Now()) })
		e.Spawn("a", func(th *Thread) {
			th.Sleep(100) // ties the event at 100, which was queued first
			logf("a@%d", th.Now())
			th.Sleep(19) // strictly before the event at 120
			logf("a@%d", th.Now())
			th.Sleep(1) // ties it again
			logf("a@%d", th.Now())
		})
	})
}

// TestSleepAcrossWheelLevels sleeps towards events queued at many wheel
// levels, and queues new events as it goes.
func TestSleepAcrossWheelLevels(t *testing.T) {
	checkLogged(t, func(e *Engine, logf func(string, ...interface{})) {
		for _, at := range []Time{40, 1 << 8, 5 << 12, 3 << 18, 1 << 24, 1 << 30, 1<<30 + 1} {
			at := at
			e.At(at, func() { logf("e%d@%d", at, e.Now()) })
		}
		e.Spawn("a", func(th *Thread) {
			for _, d := range []Time{39, 1, 1, 200, 20000, 1 << 19, 1 << 20, 1 << 22, 1 << 24, 1 << 29, 1 << 30} {
				th.Sleep(d)
				logf("a@%d", th.Now())
				at := th.Now() + d/2 + 1
				e.At(at, func() { logf("late%d@%d", at, e.Now()) })
			}
		})
		e.Spawn("b", func(th *Thread) {
			for i := 0; i < 40; i++ {
				th.Sleep(Time(1) << uint(i%31))
				logf("b@%d", th.Now())
			}
		})
	})
}

func TestSleepMaxEvents(t *testing.T) {
	in := checkLogged(t, func(e *Engine, logf func(string, ...interface{})) {
		e.MaxEvents = 3 // the spawn and two wakes; the third wake exceeds it
		e.Spawn("a", func(th *Thread) {
			for i := 0; i < 5; i++ {
				th.Sleep(10)
				logf("a@%d", th.Now())
			}
		})
	})
	if in.stats.Events != 4 || in.err != "sim: exceeded MaxEvents 3" {
		t.Fatalf("%d events, error %q", in.stats.Events, in.err)
	}
}

func TestSleepAfterStop(t *testing.T) {
	in := checkLogged(t, func(e *Engine, logf func(string, ...interface{})) {
		e.Spawn("a", func(th *Thread) {
			defer func() { logf("a unwound@%d", th.Now()) }()
			e.Stop()
			th.Sleep(10)
			logf("a ran past Stop")
		})
	})
	if in.stats.Events != 1 || in.err != "" {
		t.Fatalf("%d events, error %q", in.stats.Events, in.err)
	}
}

// TestSleepWatchdogStride: with the watchdog armed, the wakes that land
// on its check stride go through Run, which checks the wall clock; the
// thread takes every other wake in its own event loop.
func TestSleepWatchdogStride(t *testing.T) {
	const sleeps = 3000
	in := checkLogged(t, func(e *Engine, logf func(string, ...interface{})) {
		e.MaxWall = time.Hour
		e.Spawn("a", func(th *Thread) {
			for i := 0; i < sleeps; i++ {
				th.Sleep(1)
			}
			logf("a@%d", th.Now())
		})
	})
	// The i-th sleep (from 1) starts with i events run: the spawn and
	// i-1 wakes. Sleeps 1024 and 2048 fall on the stride, and Run
	// switches into the thread for each, as for the spawn.
	if in.stats.Switches != 6 {
		t.Fatalf("%d switches, want 6", in.stats.Switches)
	}
}

func TestSleepPanicError(t *testing.T) {
	in := checkLogged(t, func(e *Engine, logf func(string, ...interface{})) {
		e.Spawn("a", func(th *Thread) {
			th.Sleep(5)
			th.Sleep(7)
			panic("boom")
		})
	})
	if !strings.Contains(in.err, `simthread "a" at virtual time 12 after 3 events: boom`) {
		t.Fatalf("error %q", in.err)
	}
}

// TestStatsCountDispatches: a thread that parks and a thread that sleeps
// past it. The parker switches into the sleeper from its event loop, and
// the sleeper yields back to it when the parker's wake comes up; Run
// switches into each thread once more. The sleep that wakes with nothing
// queued before it takes its wake in its own loop, with no switch.
func TestStatsCountDispatches(t *testing.T) {
	e := NewEngine(1)
	var p *Thread
	p = e.Spawn("parker", func(th *Thread) { th.Park() })
	e.Spawn("sleeper", func(th *Thread) {
		th.Sleep(10) // its own wake is next
		p.Unpark(th.Now() + 5)
		th.Sleep(10) // the unpark runs first
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := Stats{Events: 5, Dispatches: 5, Switches: 6, Sleeps: 2, Parks: 1}
	if got := e.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}

// TestStatsCountLoneSleeps: a thread that sleeps with nothing else queued
// takes every wake in its own event loop. Run switches into it once, to
// start it, and the clock ends at the sum of the sleeps.
func TestStatsCountLoneSleeps(t *testing.T) {
	const n = 50
	e := NewEngine(1)
	var sum Time
	e.Spawn("a", func(th *Thread) {
		for i := Time(1); i <= n; i++ {
			th.Sleep(i)
			sum += i
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Switches != 2 || s.Dispatches != n+1 || e.Now() != sum {
		t.Fatalf("stats %+v, clock %d; want 2 switches, %d dispatches, clock %d", s, e.Now(), n+1, sum)
	}
}
