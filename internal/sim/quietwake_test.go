package sim

import (
	"fmt"
	"strings"
	"testing"
)

// --- quiet wakes ---

// flagCond is a test wait condition: a flag the scenario sets and clears.
type flagCond struct{ on bool }

func (c *flagCond) Ready() bool { return c.on }

// waitFunc parks th on q until c is ready.
type waitFunc func(q *WaitQueue, th *Thread, c Cond)

// waitQuiet is the path under test.
func waitQuiet(q *WaitQueue, th *Thread, c Cond) { q.WaitUntil(th, c) }

// waitLoop is the open-coded loop WaitUntil stands for.
func waitLoop(q *WaitQueue, th *Thread, c Cond) {
	for {
		q.Wait(th)
		if c.Ready() {
			return
		}
	}
}

// quietScenario spawns a scenario's threads and events on e. Its waiters
// park through wait, and it records through logf.
type quietScenario func(e *Engine, wait waitFunc, logf func(string, ...interface{}))

// runQuiet runs a scenario with its waiters parking through wait
// (runLogged). A scenario that chains its own observer after the logging
// one sees the log so far.
func runQuiet(sc quietScenario, wait waitFunc) wakeRun {
	return runLogged(func(e *Engine, logf func(string, ...interface{})) { sc(e, wait, logf) })
}

// checkQuietMatchesLoop runs a scenario through WaitUntil and through the
// open-coded loop, requires the same log (state stream, queue orders and
// the scenario's own records), events, clock and error, and returns the
// WaitUntil run. Each quiet wake stands for one dispatch and one Park of
// the loop.
func checkQuietMatchesLoop(t *testing.T, sc quietScenario) wakeRun {
	t.Helper()
	q, l := runQuiet(sc, waitQuiet), runQuiet(sc, waitLoop)
	if l.stats.QuietWakes != 0 {
		t.Fatalf("open-coded run counted %d quiet wakes", l.stats.QuietWakes)
	}
	if q.stats.Events != l.stats.Events || q.now != l.now || q.err != l.err {
		t.Fatalf("WaitUntil run: %d events, clock %d, error %q\nloop run: %d events, clock %d, error %q",
			q.stats.Events, q.now, q.err, l.stats.Events, l.now, l.err)
	}
	if strings.Join(q.log, "\n") != strings.Join(l.log, "\n") {
		for i := 0; i < len(q.log) && i < len(l.log); i++ {
			if q.log[i] != l.log[i] {
				t.Fatalf("logs part at record %d: WaitUntil %q, loop %q", i, q.log[i], l.log[i])
			}
		}
		t.Fatalf("logs differ in length: WaitUntil %d records, loop %d", len(q.log), len(l.log))
	}
	want := l.stats
	want.Dispatches -= q.stats.QuietWakes
	want.Parks -= q.stats.QuietWakes
	want.QuietWakes = q.stats.QuietWakes
	if q.stats != want {
		t.Fatalf("WaitUntil stats %+v, want the loop's %+v less one dispatch and one park per quiet wake", q.stats, l.stats)
	}
	return q
}

// logQueues chains an observer after runQuiet's that records the order of
// every queue each time a thread parks: the moment a waiter, quiet or
// not, has just gone back onto its queue.
func logQueues(e *Engine, logf func(string, ...interface{}), qs ...*WaitQueue) {
	prev := e.OnThreadState
	e.OnThreadState = func(th *Thread, s ThreadState) {
		prev(th, s)
		if s != StateParked {
			return
		}
		for i, q := range qs {
			names := make([]string, len(q.q))
			for j, w := range q.q {
				names[j] = w.Name()
			}
			logf("q%d=[%s]", i, strings.Join(names, ","))
		}
	}
}

// quietAction is one step of a random schedule, run in engine context.
type quietAction struct {
	at     Time
	kind   int
	q, c   int
	delay  Time
	cancel Time // kind 4: when to cancel the timer; 0 leaves it armed
}

// randomQuietScenario draws a schedule from seed: four WaitUntil waiters
// on two queues with one condition each, a plain waiter sharing the first
// queue, a thread that sleeps and wakes from thread context, and engine
// events that set and clear conditions, wake queues at now or later, and
// arm timers that set a condition and wake its queue (some cancelled
// before they fire). The waiters are daemons, so the ones still parked
// when the schedule runs out are killed at shutdown.
func randomQuietScenario(seed uint64) quietScenario {
	return func(e *Engine, wait waitFunc, logf func(string, ...interface{})) {
		r := NewRand(seed)
		qs := []*WaitQueue{{}, {}}
		conds := make([]*flagCond, 4)
		for i := range conds {
			conds[i] = &flagCond{}
		}
		logQueues(e, logf, qs...)
		for i := range conds {
			i := i
			naps := make([]Time, 8)
			for k := range naps {
				naps[k] = r.Int63n(3) * r.Int63n(40)
			}
			e.SpawnAt(r.Int63n(100), fmt.Sprintf("w%d", i), func(th *Thread) {
				th.SetDaemon()
				defer func() { logf("w%d unwound@%d", i, th.Now()) }()
				for k := 0; ; k++ {
					wait(qs[i%2], th, conds[i])
					logf("w%d woke@%d", i, th.Now())
					conds[i].on = false
					if d := naps[k%len(naps)]; d > 0 {
						th.Sleep(d)
					}
				}
			})
		}
		e.Spawn("plain", func(th *Thread) {
			th.SetDaemon()
			for {
				qs[0].Wait(th)
				logf("plain woke@%d", th.Now())
			}
		})
		ticks := make([]Time, 30)
		for k := range ticks {
			ticks[k] = 1 + r.Int63n(300)
		}
		e.Spawn("ticker", func(th *Thread) {
			for k, d := range ticks {
				th.Sleep(d)
				if k%3 == 0 {
					conds[k%len(conds)].on = true
				}
				logf("ticker woke %d@%d", qs[k%2].WakeAll(th.Now()), th.Now())
			}
		})
		acts := make([]quietAction, 80)
		for k := range acts {
			a := quietAction{at: r.Int63n(5000), kind: r.Intn(5), q: r.Intn(2), c: r.Intn(len(conds))}
			if r.Intn(3) == 0 {
				a.delay = r.Int63n(50)
			}
			if a.kind == 4 && r.Intn(2) == 0 {
				a.cancel = a.at + r.Int63n(2*a.delay+1)
			}
			acts[k] = a
		}
		for k := range acts {
			a := acts[k]
			e.At(a.at, func() {
				q, c := qs[a.q], conds[a.c]
				switch a.kind {
				case 0:
					c.on = true
				case 1:
					c.on = false
				case 2:
					logf("wake all q%d: %d@%d", a.q, q.WakeAll(e.Now()+a.delay), e.Now())
				case 3:
					if th := q.WakeOne(e.Now()); th != nil {
						logf("wake one q%d: %s@%d", a.q, th.Name(), e.Now())
					}
				case 4:
					tm := e.AtTimer(e.Now()+a.delay, func() {
						c.on = true
						logf("timer q%d: %d@%d", a.q, q.WakeAll(e.Now()), e.Now())
					})
					if a.cancel > 0 {
						e.At(a.cancel, tm.Cancel)
					}
				}
			})
		}
	}
}

// TestQuietWakeMatchesLoop: over seeded random schedules, WaitUntil and
// the open-coded loop produce the same state stream, queue orders, events
// and clock, and the quiet path actually fires.
func TestQuietWakeMatchesLoop(t *testing.T) {
	var quiet, dispatches uint64
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			q := checkQuietMatchesLoop(t, randomQuietScenario(seed))
			if q.err != "" {
				t.Fatalf("run failed: %s", q.err)
			}
			quiet += q.stats.QuietWakes
			dispatches += q.stats.Dispatches
		})
	}
	t.Logf("%d quiet wakes, %d dispatches", quiet, dispatches)
	if quiet == 0 {
		t.Fatal("no wake was quiet")
	}
}

// TestQuietWakeKilledAtShutdown: a waiter that was re-queued quietly is
// still suspended inside its own WaitUntil, so Stop unwinds it through
// its deferred calls exactly as it unwinds the loop's parked thread.
func TestQuietWakeKilledAtShutdown(t *testing.T) {
	q := checkQuietMatchesLoop(t, func(e *Engine, wait waitFunc, logf func(string, ...interface{})) {
		var wq WaitQueue
		c := &flagCond{}
		e.Spawn("waiter", func(th *Thread) {
			defer func() { logf("waiter unwound@%d", th.Now()) }()
			wait(&wq, th, c)
			logf("waiter ran past its wait")
		})
		for _, at := range []Time{10, 20, 30} {
			e.At(at, func() { wq.WakeAll(e.Now()) })
		}
		e.At(50, e.Stop)
	})
	if q.stats.QuietWakes != 3 || q.err != "" {
		t.Fatalf("%d quiet wakes, error %q; want 3 and none", q.stats.QuietWakes, q.err)
	}
	if got := q.log[len(q.log)-2:]; got[0] != "waiter unwound@50" || got[1] != "waiter:done@50" {
		t.Fatalf("log ends %v, want the unwind and done at 50", got)
	}
}

// crashCond is a completion queue's condition: an item was delivered, or
// the owner's process crashed.
type crashCond struct {
	crashed bool
	items   int
}

func (c *crashCond) Ready() bool { return c.crashed || c.items != 0 }

// crashUnwind is the panic that unwinds a crashed owner.
type crashUnwind struct{}

// TestQuietWakeCrashSwitchesIn: a condition that turns true only because
// the process crashed switches the waiter in, and it unwinds on its own
// stack at the crash's instant.
func TestQuietWakeCrashSwitchesIn(t *testing.T) {
	q := checkQuietMatchesLoop(t, func(e *Engine, wait waitFunc, logf func(string, ...interface{})) {
		var wq WaitQueue
		c := &crashCond{}
		e.Spawn("owner", func(th *Thread) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(crashUnwind); !ok {
						panic(r)
					}
					logf("owner unwound@%d", th.Now())
				}
			}()
			for c.items == 0 {
				if c.crashed {
					panic(crashUnwind{})
				}
				wait(&wq, th, c)
			}
			logf("owner took an item")
		})
		for _, at := range []Time{10, 20, 30} {
			e.At(at, func() { wq.WakeAll(e.Now()) })
		}
		e.At(40, func() {
			c.crashed = true
			wq.WakeAll(e.Now())
		})
	})
	if q.stats.QuietWakes != 3 || q.err != "" {
		t.Fatalf("%d quiet wakes, error %q; want 3 and none", q.stats.QuietWakes, q.err)
	}
	if got := q.log[len(q.log)-2:]; got[0] != "owner unwound@40" || got[1] != "owner:done@40" {
		t.Fatalf("log ends %v, want the unwind and done at 40", got)
	}
}

// TestStatsCountQuietWakes pins every counter for a waiter woken three
// times with its condition false and once with it true, which then
// sleeps with nothing queued. Through the loop, each quiet wake is a
// dispatch and a Park instead.
func TestStatsCountQuietWakes(t *testing.T) {
	for _, tc := range []struct {
		name string
		wait waitFunc
		want Stats
	}{
		{"WaitUntil", waitQuiet, Stats{Events: 10, Dispatches: 2, Sleeps: 1, InlineWakes: 1, Parks: 1, QuietWakes: 3}},
		{"loop", waitLoop, Stats{Events: 10, Dispatches: 5, Sleeps: 1, InlineWakes: 1, Parks: 4}},
	} {
		e := NewEngine(1)
		var wq WaitQueue
		c := &flagCond{}
		e.Spawn("waiter", func(th *Thread) {
			tc.wait(&wq, th, c)
			th.Sleep(5)
		})
		for _, at := range []Time{10, 20, 30} {
			e.At(at, func() { wq.WakeAll(e.Now()) })
		}
		e.At(40, func() {
			c.on = true
			wq.WakeAll(e.Now())
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got := e.Stats(); got != tc.want || e.Now() != 45 {
			t.Fatalf("%s: stats %+v at %d, want %+v at 45", tc.name, got, e.Now(), tc.want)
		}
	}
}

// TestQuietWakeAllocs is the quiet path's allocation gate: a wake of a
// WaitUntil waiter whose condition is false — WakeAll, the pooled wake
// event, and the engine's re-queue, taken as Run takes a thread event —
// allocates nothing.
func TestQuietWakeAllocs(t *testing.T) {
	e := NewEngine(1)
	var wq WaitQueue
	c := &flagCond{}
	var allocs float64
	var quiet uint64
	w := e.Spawn("waiter", func(th *Thread) { wq.WaitUntil(th, c) })
	e.At(1, func() {
		before := e.stats.QuietWakes
		allocs = testing.AllocsPerRun(1000, func() {
			wq.WakeAll(e.Now())
			ev := e.q.pop()
			if ev == nil || ev.thread != w {
				panic("the wake is not the next event")
			}
			w.wake = nil
			e.q.recycle(ev)
			e.dispatch(w)
		})
		quiet = e.stats.QuietWakes - before
		c.on = true
		wq.WakeAll(e.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if quiet != 1001 || !w.Done() {
		t.Fatalf("%d quiet wakes, waiter done %v; want 1001 and done", quiet, w.Done())
	}
	if allocs != 0 {
		t.Fatalf("%.2f allocs per quiet wake, want 0", allocs)
	}
}
