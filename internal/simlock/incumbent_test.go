package simlock

import (
	"testing"

	"mpicontend/internal/machine"
	"mpicontend/internal/sim"
)

// TestDebugIncumbentVsOutsider measures how long an outsider thread waits
// to acquire a mutex monopolized by a tight polling loop.
func TestDebugIncumbentVsOutsider(t *testing.T) {
	eng := sim.NewEngine(3)
	eng.MaxEvents = 5_000_000
	cfg := &Config{Eng: eng, Cost: machine.Default()}
	m := New(KindMutex, cfg)
	topo := machine.Nehalem2x4(1)

	incPlace := topo.PlaceOf(0, 1)
	outPlace := topo.PlaceOf(0, 0)
	stop := false
	eng.Spawn("incumbent", func(th *sim.Thread) {
		c := &Ctx{T: th, Place: incPlace}
		for !stop {
			m.Acquire(c, High)
			th.Sleep(400)
			m.Release(c, High)
			th.Sleep(10 + eng.Rand().Int63n(21))
		}
	})
	var waits []int64
	eng.Spawn("outsider", func(th *sim.Thread) {
		c := &Ctx{T: th, Place: outPlace}
		for i := 0; i < 40; i++ {
			th.Sleep(300)
			t0 := th.Now()
			m.Acquire(c, High)
			waits = append(waits, th.Now()-t0)
			th.Sleep(150)
			m.Release(c, High)
		}
		stop = true
	})
	if err := eng.Run(); err != nil {
		t.Logf("run: %v", err)
	}
	var sum, max int64
	for _, w := range waits {
		sum += w
		if w > max {
			max = w
		}
	}
	if len(waits) == 0 {
		t.Fatal("outsider never acquired")
	}
	t.Logf("outsider acquisitions=%d avg=%dns max=%dns events=%d now=%dns",
		len(waits), sum/int64(len(waits)), max, eng.EventsRun(), eng.Now())
}
