package mpi

import (
	"testing"

	"mpicontend/internal/telemetry"
)

// progressModes lists every progress mode the wait family must serve.
var progressModes = []ProgressMode{ProgressPolling, ProgressStrong, ProgressContinuation}

// TestWaitFamilyProgressModes: each wait call completes a receive whose
// send arrives 200 µs late, in every progress mode and shard layout. Under
// polling the blocked caller spins the progress loop and wastes low-class
// acquisitions; under strong progress and continuations it parks, so no
// low-class acquisition is wasted, whichever wait call blocks.
func TestWaitFamilyProgressModes(t *testing.T) {
	calls := []struct {
		name string
		wait func(t *testing.T, th *Thread, r *Request)
	}{
		{"Wait", func(t *testing.T, th *Thread, r *Request) {
			if err := th.Wait(r); err != nil {
				t.Errorf("Wait: %v", err)
			}
		}},
		{"Waitall", func(t *testing.T, th *Thread, r *Request) {
			if err := th.Waitall([]*Request{r}); err != nil {
				t.Errorf("Waitall: %v", err)
			}
		}},
		{"Waitany", func(t *testing.T, th *Thread, r *Request) {
			if i := th.Waitany([]*Request{nil, r}); i != 1 {
				t.Errorf("Waitany = %d, want 1", i)
			}
		}},
		{"Waitsome", func(t *testing.T, th *Thread, r *Request) {
			if got := th.Waitsome([]*Request{r, nil}); len(got) != 1 || got[0] != 0 {
				t.Errorf("Waitsome = %v, want [0]", got)
			}
		}},
	}
	for _, mode := range progressModes {
		for _, call := range calls {
			mode, call := mode, call
			t.Run(mode.String()+"/"+call.name, func(t *testing.T) {
				forEachVCI(t, func(t *testing.T, opt func(*Config)) {
					rec := telemetry.New()
					w := testWorld(t, 2, opt, withProgress(mode), func(c *Config) { c.Tel = rec })
					c := w.Comm()
					w.Spawn(0, "sender", func(th *Thread) {
						th.S.Sleep(200_000)
						th.Send(c, 1, 3, 64, "late")
					})
					var got interface{}
					w.Spawn(1, "receiver", func(th *Thread) {
						r := th.Irecv(c, 0, 3)
						call.wait(t, th, r)
						got = r.Data()
					})
					if err := w.Run(); err != nil {
						t.Fatal(err)
					}
					if got != "late" {
						t.Fatalf("received %v", got)
					}
					if n := w.DanglingNow(); n != 0 {
						t.Fatalf("dangling requests: %d", n)
					}
					wasted := rec.Profile().Progress.WastedLowAcq
					if mode == ProgressPolling && wasted == 0 {
						t.Fatalf("polling %s wasted no low-class acquisitions; the late send should make it spin", call.name)
					}
					if mode != ProgressPolling && wasted != 0 {
						t.Fatalf("%s under %v wasted %d low-class acquisitions, want 0", call.name, mode, wasted)
					}
				})
			})
		}
	}
}

// TestWaitUndefined: with no active request — an empty list, only nil
// entries, or a list a previous call already drained — Waitany returns -1
// and Waitsome nil (MPI_UNDEFINED), and Waitall succeeds, all at once:
// no virtual time passes and no progress loop spins.
func TestWaitUndefined(t *testing.T) {
	for _, mode := range progressModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			forEachVCI(t, func(t *testing.T, opt func(*Config)) {
				w := testWorld(t, 2, opt, withProgress(mode), func(c *Config) { c.MaxEvents = 200_000 })
				c := w.Comm()
				w.Spawn(0, "sender", func(th *Thread) {
					th.Send(c, 1, 0, 8, "x")
				})
				w.Spawn(1, "receiver", func(th *Thread) {
					rs := []*Request{th.Irecv(c, 0, 0)}
					if got := th.Waitsome(rs); len(got) != 1 || got[0] != 0 {
						t.Errorf("Waitsome = %v, want [0]", got)
					}
					start := th.S.Now()
					for _, list := range [][]*Request{nil, {nil, nil}, rs} {
						if i := th.Waitany(list); i != -1 {
							t.Errorf("Waitany(%v) = %d, want -1", list, i)
						}
						if got := th.Waitsome(list); got != nil {
							t.Errorf("Waitsome(%v) = %v, want nil", list, got)
						}
						if err := th.Waitall(list); err != nil {
							t.Errorf("Waitall(%v): %v", list, err)
						}
					}
					if now := th.S.Now(); now != start {
						t.Errorf("waits on inactive lists took %d ns, want 0", now-start)
					}
				})
				if err := w.Run(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
