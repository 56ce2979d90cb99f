package sim

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"
)

// --- direct hand-off ---

// blockedInSwitch lists, by name, the threads whose event loop has
// switched into another thread and waits for it: the hand-off chain below
// the running code, bottom first.
func blockedInSwitch(e *Engine) string {
	var names []string
	for _, t := range e.threads {
		if t.inNext {
			names = append(names, t.name)
		}
	}
	return strings.Join(names, " ")
}

// wantChain fails the test unless the hand-off chain seen at some point
// of a scenario was want.
func wantChain(t *testing.T, where, got, want string) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: blocked inside a switch: [%s], want [%s]", where, got, want)
	}
}

// spawnChain starts A at 0, B at 1 and C at 2. Each sleeps d as soon as
// it starts, which builds the chain A → B → C: A's event loop takes B's
// start and switches into B, B's takes C's, and from time 2 on, C's loop
// takes the events. Each thread logs its wake and its unwinding.
func spawnChain(e *Engine, logf func(string, ...interface{}), d Time) {
	for i, name := range []string{"A", "B", "C"} {
		name := name
		e.SpawnAt(Time(i), name, func(th *Thread) {
			defer func() { logf("%s unwound@%d", name, th.Now()) }()
			th.Sleep(d)
			logf("%s woke@%d", name, th.Now())
		})
	}
}

// maskElapsed drops the watchdog's wall-clock reading from an error
// text, the one part of it that is not a function of the simulation.
func maskElapsed(s string) string {
	return regexp.MustCompile(`\(elapsed [^)]*\)`).ReplaceAllString(s, "(elapsed -)")
}

// TestHandoffChainCallbackPanic: a callback that panics while C's loop
// runs it fails the run as a callback, at the virtual time and event
// count of the failing event, with the dump taken before shutdown (the
// record has C sleeping), and every thread unwinds at shutdown.
func TestHandoffChainCallbackPanic(t *testing.T) {
	var chain string
	var running *Thread
	r := checkLogged(t, func(e *Engine, logf func(string, ...interface{})) {
		spawnChain(e, logf, 100)
		e.At(5, func() {
			chain, running = blockedInSwitch(e), e.running
			panic("cb")
		})
	})
	wantChain(t, "callback", chain, "A B")
	if running != nil {
		t.Fatalf("callback ran with %q running", running.name)
	}
	if !strings.Contains(r.err, "sim: panic in engine callback at virtual time 5 after 4 events: cb") {
		t.Fatalf("error %q", r.err)
	}
}

// TestHandoffChainThreadPanic: a thread's own panic names it, whether it
// panics at the top of the chain (D, switched into from C's loop) or
// after its wake was handed back down the chain to it (A, whose wake C's
// loop takes).
func TestHandoffChainThreadPanic(t *testing.T) {
	for _, tc := range []struct {
		name, thread, chain string
		at                  Time
	}{
		{"top", "D", "A B C", 3},
		{"handedBack", "A", "", 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var chain string
			r := checkLogged(t, func(e *Engine, logf func(string, ...interface{})) {
				for i, name := range []string{"A", "B", "C"} {
					name := name
					e.SpawnAt(Time(i), name, func(th *Thread) {
						th.Sleep(100)
						if name == tc.thread {
							chain = blockedInSwitch(e)
							panic(name + " boom")
						}
					})
				}
				e.SpawnAt(3, "D", func(th *Thread) {
					if tc.thread == "D" {
						chain = blockedInSwitch(e)
						panic("D boom")
					}
				})
			})
			wantChain(t, tc.thread, chain, tc.chain)
			want := fmt.Sprintf("sim: panic in simthread %q at virtual time %d", tc.thread, tc.at)
			if !strings.Contains(r.err, want) {
				t.Fatalf("error %q, want it to contain %q", r.err, want)
			}
		})
	}
}

// TestHandoffChainStop: Stop from a callback that C's loop runs ends Run
// after that event; the chain unwinds to Run, and shutdown unwinds every
// thread in order.
func TestHandoffChainStop(t *testing.T) {
	var chain string
	r := checkLogged(t, func(e *Engine, logf func(string, ...interface{})) {
		spawnChain(e, logf, 100)
		e.At(5, func() {
			chain = blockedInSwitch(e)
			e.Stop()
		})
		e.At(6, func() { logf("ran past Stop") })
	})
	wantChain(t, "stop", chain, "A B")
	if r.err != "" || r.now != 5 || r.stats.Events != 4 {
		t.Fatalf("error %q, clock %d, %d events; want none, 5, 4", r.err, r.now, r.stats.Events)
	}
}

// TestHandoffChainMaxEvents: the event past MaxEvents comes up in C's
// loop; the chain unwinds and Run fails on that same event.
func TestHandoffChainMaxEvents(t *testing.T) {
	r := checkLogged(t, func(e *Engine, logf func(string, ...interface{})) {
		e.MaxEvents = 6
		spawnChain(e, logf, 100)
		for at := Time(3); at < 10; at++ {
			e.At(at, func() { logf("tick@%d", e.Now()) })
		}
	})
	if r.err != "sim: exceeded MaxEvents 6" || r.now != 6 || r.stats.Events != 7 {
		t.Fatalf("error %q, clock %d, %d events", r.err, r.now, r.stats.Events)
	}
}

// TestHandoffChainWatchdog: the watchdog is armed while the chain stands,
// and the stride event comes up in C's loop; the chain unwinds to Run,
// which checks the wall clock. With the budget spent, the watchdog fires
// on that event.
func TestHandoffChainWatchdog(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget time.Duration
	}{
		{"armed", time.Hour},
		{"fires", time.Nanosecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var chain string
			r := runLogged(func(e *Engine, logf func(string, ...interface{})) {
				spawnChain(e, logf, 3000)
				e.At(3, func() {
					chain = blockedInSwitch(e)
					e.MaxWall = tc.budget
				})
				for at := Time(4); at < 2500; at++ {
					e.At(at, func() {})
				}
				e.At(2500, func() { logf("last tick@%d", e.Now()) })
			})
			r.err = maskElapsed(r.err)
			checkRecord(t, r)
			wantChain(t, "watchdog armed", chain, "A B")
		})
	}
}

// TestHandoffChainDeadlock: three threads that park for good build the
// chain and find the queue empty in C's loop; the chain unwinds to Run,
// which reports all three.
func TestHandoffChainDeadlock(t *testing.T) {
	r := checkLogged(t, func(e *Engine, logf func(string, ...interface{})) {
		for i, name := range []string{"A", "B", "C"} {
			e.SpawnAt(Time(i), name, func(th *Thread) { th.Park() })
		}
	})
	if r.err != "sim: deadlock: no events left but 3 thread(s) blocked: A, B, C" {
		t.Fatalf("error %q", r.err)
	}
}

// TestHandoffChainUnwoundThreadReturnsToHost mirrors a fail-stopped
// rank's thread (mpi's rankCrashed): C, parked in the chain, is woken and
// unwinds by a panic that its own body recovers. Its coroutine returns,
// and control goes back to B, the host whose loop switched into it.
func TestHandoffChainUnwoundThreadReturnsToHost(t *testing.T) {
	var chainAtCrash, chainAfter string
	checkLogged(t, func(e *Engine, logf func(string, ...interface{})) {
		crashed := false
		var c *Thread
		for i, name := range []string{"A", "B"} {
			name := name
			e.SpawnAt(Time(i), name, func(th *Thread) {
				th.Sleep(100)
				logf("%s woke@%d", name, th.Now())
			})
		}
		c = e.SpawnAt(2, "C", func(th *Thread) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(crashUnwind); !ok {
						panic(r)
					}
					logf("C unwound@%d", th.Now())
				}
			}()
			for !crashed {
				th.Park()
			}
			chainAtCrash = blockedInSwitch(e)
			panic(crashUnwind{})
		})
		e.At(5, func() {
			crashed = true
			c.Unpark(e.Now())
		})
		e.At(6, func() { chainAfter = blockedInSwitch(e) })
	})
	wantChain(t, "crash", chainAtCrash, "A B")
	wantChain(t, "after the crash", chainAfter, "A")
}

// spawnTurns spawns k threads that take turns round-robin: thread i
// starts at time i and sleeps k, n times, so its wakes fall between the
// others'.
func spawnTurns(e *Engine, k, n int) {
	for i := 0; i < k; i++ {
		e.SpawnAt(Time(i), fmt.Sprint("t", i), func(th *Thread) {
			for j := 0; j < n; j++ {
				th.Sleep(Time(k))
			}
		})
	}
}

// TestHandoffOneSwitch: two threads that sleep across each other's wakes
// switch once per hand-off. A's loop switches into B, and B's loop yields
// straight back when A's wake comes up. Run adds its switch into A and,
// after A returns, into B for B's last wake.
func TestHandoffOneSwitch(t *testing.T) {
	const n = 1000
	e := NewEngine(1)
	spawnTurns(e, 2, n)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	// A and B run 2n+2 times in turn: 2n+1 hand-offs.
	want := Stats{Events: 2*n + 2, Dispatches: 2*n + 2, Switches: 2*n + 1 + 3, Sleeps: 2 * n}
	if s != want {
		t.Fatalf("stats %+v, want %+v", s, want)
	}
}

// BenchmarkHandoff reports the host cost and the switches of one
// hand-off between simthreads: a two-thread ping-pong, and eight threads
// taking turns round-robin, where each turn's owner is at the bottom of a
// chain of seven switches when its wake comes up.
func BenchmarkHandoff(b *testing.B) {
	for _, k := range []int{2, 8} {
		name := "pingpong"
		if k > 2 {
			name = fmt.Sprintf("roundrobin%d", k)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			e := NewEngine(1)
			spawnTurns(e, k, b.N/k+1)
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			s := e.Stats()
			handoffs := float64(s.Dispatches - 1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/handoffs, "ns/handoff")
			b.ReportMetric(float64(s.Switches)/handoffs, "switches/handoff")
		})
	}
}
