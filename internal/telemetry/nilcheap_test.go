package telemetry

import (
	"testing"

	"mpicontend/internal/machine"
	"mpicontend/internal/sim"
)

// TestNilRecorderHooksAreCheap pins the package contract the hot path
// depends on: every recording hook is a nil-receiver no-op that neither
// panics nor allocates. The simulator's fast path calls these behind
// plain nil checks, so any allocation (e.g. an interface boxing or a
// defensive copy added before the nil test) would silently tax every
// event of every figure regeneration.
func TestNilRecorderHooksAreCheap(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	hooks := map[string]func(){
		"RegisterThread": func() { r.RegisterThread(1, "t") },
		"Call":           func() { r.Call(1, "Isend", 0, 10) },
		"Poll":           func() { r.Poll(1, 0, 10, 2) },
		"LockRequest":    func() { r.LockRequest(0, 1, machine.Place{}, 0) },
		"LockGrant":      func() { r.LockGrant(0, 1, 0, machine.Place{}, 0, 10, 2) },
		"LockHold":       func() { r.LockHold(0, 1, 0, true, 0, 0, 0, 10) },
		"Inject":         func() { r.Inject(0, "Eager", 64, 0, 10) },
		"Flight":         func() { r.Flight(0, 1, "Eager", 64, 0, 10) },
		"Dangling":       func() { r.Dangling(0, 3) },
		"Unexpected":     func() { r.Unexpected(100) },
		"ThreadState":    func() { r.ThreadState(1, 0, sim.StateRunning) },
	}
	for name, fn := range hooks {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("nil Recorder.%s allocates %.0f times per call; want 0", name, allocs)
		}
	}
	// RegisterLock returns an id; exercise it separately for the panic
	// and allocation guarantees.
	if allocs := testing.AllocsPerRun(100, func() { _ = r.RegisterLock("cs") }); allocs != 0 {
		t.Errorf("nil Recorder.RegisterLock allocates; want 0")
	}
}
