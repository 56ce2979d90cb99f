package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestShutdownReapsParkedGoroutines pins that Run's shutdown terminates the
// goroutine of every simthread still blocked when the run ends. A daemon
// that has just handed the baton back but not yet re-entered its resume
// receive must still be unblocked; a non-blocking hand-off would miss it
// and leave the goroutine parked forever, so a long-lived process running
// many simulations would grow without bound.
func TestShutdownReapsParkedGoroutines(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// The window only opens when the engine and the yielding thread
		// run in parallel.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const engines, daemons = 500, 4
	base := runtime.NumGoroutine()
	for i := 0; i < engines; i++ {
		e := NewEngine(uint64(i + 1))
		var wq WaitQueue
		for d := 0; d < daemons; d++ {
			e.Spawn("daemon", func(th *Thread) {
				th.SetDaemon()
				for {
					wq.Wait(th)
				}
			})
		}
		e.Spawn("app", func(th *Thread) { th.Sleep(10) })
		if err := e.Run(); err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
	}
	// Terminated goroutines exit just after their last baton hand-off;
	// give the scheduler a moment to retire them.
	leaked := 0
	//simcheck:allow nodeterm settle deadline for goroutine exit; never feeds simulation state
	deadline := time.Now().Add(5 * time.Second)
	for {
		leaked = runtime.NumGoroutine() - base
		//simcheck:allow nodeterm settle deadline for goroutine exit; never feeds simulation state
		if leaked <= 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond) //simcheck:allow nodeterm settle wait for goroutine exit; never feeds simulation state
	}
	if leaked > 0 {
		t.Fatalf("%d simthread goroutines outlived their engines (%d engines x %d parked daemons)",
			leaked, engines, daemons)
	}
}
