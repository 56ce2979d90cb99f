package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestShutdownReapsParkedGoroutines pins that Run's shutdown releases
// every simthread still blocked when the run ends. Each simthread is an
// iter.Pull coroutine, which the runtime backs with a goroutine of its
// own; only the coroutine's stop frees it, so a shutdown that skipped a
// parked daemon would leave one goroutine behind per daemon, and a
// long-lived process running many simulations would grow without bound.
func TestShutdownReapsParkedGoroutines(t *testing.T) {
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
	// Give goroutines the test harness started a moment to retire, so
	// only a real leak fails.
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
