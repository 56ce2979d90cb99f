package sim

import (
	"errors"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
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

func TestMailbox(t *testing.T) {
	e := NewEngine(1)
	var mb Mailbox
	var got []int
	e.Spawn("recv", func(th *Thread) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Get(th).(int))
		}
	})
	e.Spawn("send", func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Sleep(10)
			mb.Put(th.Now(), i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("got %v", got)
		}
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

func TestWaitQueueRemove(t *testing.T) {
	e := NewEngine(1)
	var wq WaitQueue
	var a *Thread
	woken := false
	a = e.Spawn("a", func(th *Thread) {
		th.Park() // parked directly; removed from queue by controller
		woken = true
	})
	e.Spawn("ctl", func(th *Thread) {
		th.Sleep(10)
		wq.q = append(wq.q, a)
		if !wq.Remove(a) {
			t.Error("Remove missed present thread")
		}
		if wq.Remove(a) {
			t.Error("Remove found absent thread")
		}
		a.Unpark(th.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Fatal("a never woke")
	}
}

func TestMailboxTryGet(t *testing.T) {
	var mb Mailbox
	if _, ok := mb.TryGet(); ok {
		t.Fatal("TryGet on empty succeeded")
	}
	e := NewEngine(1)
	e.At(0, func() {
		mb.Put(0, "x")
		mb.Put(0, "y")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if v, ok := mb.TryGet(); !ok || v != "x" {
		t.Fatalf("TryGet = %v %v", v, ok)
	}
	if mb.Len() != 1 {
		t.Fatalf("Len = %d", mb.Len())
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
