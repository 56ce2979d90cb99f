package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mpicontend/internal/sim"
	"mpicontend/internal/telemetry"
)

// progressModes lists every progress mode the wait family must serve.
var progressModes = []ProgressMode{ProgressPolling, ProgressStrong, ProgressContinuation}

// TestWaitFamilyProgressModes: each wait call completes a receive whose
// send arrives 200 µs late, alone or behind a null entry, in every
// progress mode and shard layout. Under
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
		{"Waitall+null", func(t *testing.T, th *Thread, r *Request) {
			if err := th.Waitall([]*Request{nil, r}); err != nil {
				t.Errorf("Waitall: %v", err)
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
						call.wait(t, th, th.IrecvN(c, 0, 3, -1, &got))
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

// TestWaitUndefined: with no active request — an empty list or only nil
// entries — Waitall succeeds at once: no virtual time passes and no
// progress loop spins.
func TestWaitUndefined(t *testing.T) {
	for _, mode := range progressModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			forEachVCI(t, func(t *testing.T, opt func(*Config)) {
				w := testWorld(t, 2, opt, withProgress(mode), func(c *Config) { c.MaxEvents = 200_000 })
				w.Spawn(1, "receiver", func(th *Thread) {
					start := th.S.Now()
					for _, list := range [][]*Request{nil, {nil, nil}} {
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

// completionCall is one way of reaping a request with the four
// completion calls. reap drives it until it has reaped r, or calls it once
// when r is inactive (nil or already freed), and returns the error the
// call reports: the return value of Wait, Waitall and Test, and
// Request.Err for Testall, whose result only lists the requests still
// pending. list marks the calls that take a request list and so skip a
// freed entry, where Wait and Test raise MPI_ERR_REQUEST; polls marks
// Testall, which runs one progress round even on an inactive list.
type completionCall struct {
	name  string
	list  bool
	polls bool
	reap  func(t *testing.T, th *Thread, r *Request) error
}

// errOf reads r's error, or nil for MPI_REQUEST_NULL and for a request
// the call recycled: errored requests are never pooled.
func errOf(r *Request) error {
	if r == nil || r.pooled {
		return nil
	}
	return r.Err()
}

var completionCalls = []completionCall{
	{"Wait", false, false, func(t *testing.T, th *Thread, r *Request) error {
		return th.Wait(r)
	}},
	{"Waitall", true, false, func(t *testing.T, th *Thread, r *Request) error {
		return th.Waitall([]*Request{r})
	}},
	// r among MPI_REQUEST_NULL entries: the nulls are skipped, and r is
	// reaped by the same rule as alone.
	{"Waitall+null", true, false, func(t *testing.T, th *Thread, r *Request) error {
		return th.Waitall([]*Request{nil, r, nil})
	}},
	{"Test", false, false, func(t *testing.T, th *Thread, r *Request) error {
		for {
			done, err := th.Test(r)
			if done {
				return err
			}
			th.S.Sleep(500)
		}
	}},
	// One Test, then Wait if it did not complete: a Test that reports
	// false leaves r pending for the Wait that follows.
	{"Test+Wait", false, false, func(t *testing.T, th *Thread, r *Request) error {
		if done, err := th.Test(r); done {
			return err
		}
		return th.Wait(r)
	}},
	{"Testall", true, true, func(t *testing.T, th *Thread, r *Request) error {
		for rs := th.Testall([]*Request{r}); len(rs) > 0; rs = th.Testall(rs) {
			th.S.Sleep(500)
		}
		return errOf(r)
	}},
	// Testall drops the null entry from the list it returns, so the loop
	// ends once r is reaped.
	{"Testall+null", true, true, func(t *testing.T, th *Thread, r *Request) error {
		for rs := th.Testall([]*Request{nil, r}); len(rs) > 0; rs = th.Testall(rs) {
			if len(rs) != 1 || rs[0] != r {
				t.Errorf("Testall left %v pending, want only %p", rs, r)
				return errOf(r)
			}
			th.S.Sleep(500)
		}
		return errOf(r)
	}},
}

// isCode reports whether err is an MPI error of class code.
func isCode(err error, code Errcode) bool {
	var merr *Error
	return errors.As(err, &merr) && merr.Code == code
}

// TestCompletionErrorTable: the four completion calls, alone, over lists
// with null entries and Test followed by Wait, meet one rule for what they
// reap, in every progress mode and shard layout, under both error
// handlers.
//   - A truncated receive raises MPI_ERR_TRUNCATE through the handler: the
//     run ends with a *sim.PanicError under MPI_ERRORS_ARE_FATAL, and under
//     MPI_ERRORS_RETURN the call reports it (Wait, Waitall and Test return
//     it; Testall leaves it readable on Request.Err).
//   - A nil request is MPI_REQUEST_NULL: no error, and no virtual time
//     except Testall's one progress round (TestTestallEmptyPolls).
//   - A freed request is MPI_ERR_REQUEST for Wait and Test; the list
//     calls skip it, as they skip null entries.
func TestCompletionErrorTable(t *testing.T) {
	cells := []string{"truncated", "nil", "freed"}
	for _, h := range []Errhandler{ErrorsAreFatal, ErrorsReturn} {
		for _, mode := range progressModes {
			for _, call := range completionCalls {
				for _, cell := range cells {
					h, mode, call, cell := h, mode, call, cell
					t.Run(fmt.Sprintf("%v/%v/%s/%s", h, mode, call.name, cell), func(t *testing.T) {
						forEachVCI(t, func(t *testing.T, opt func(*Config)) {
							completionCell(t, opt, h, mode, call, cell)
						})
					})
				}
			}
		}
	}
}

// completionCell runs one cell of TestCompletionErrorTable.
func completionCell(t *testing.T, opt func(*Config), h Errhandler, mode ProgressMode, call completionCall, cell string) {
	w := testWorld(t, 2, opt, withProgress(mode), func(c *Config) { c.MaxEvents = 200_000 })
	w.SetErrhandler(h)
	c := w.Comm()
	w.Spawn(0, "sender", func(th *Thread) {
		switch cell {
		case "truncated":
			th.Send(c, 1, 0, 64, "wide")
		case "freed":
			th.Send(c, 1, 0, 8, "x")
		}
	})
	var got error
	w.Spawn(1, "receiver", func(th *Thread) {
		var r *Request
		switch cell {
		case "truncated":
			got = call.reap(t, th, th.IrecvN(c, 0, 0, 8, nil))
			return
		case "freed":
			r = th.Irecv(c, 0, 0)
			if err := th.Wait(r); err != nil {
				t.Errorf("setup Wait: %v", err)
			}
		}
		start, polls := th.S.Now(), th.P.Polls
		got = call.reap(t, th, r)
		if call.polls {
			if n := th.P.Polls - polls; n != 1 {
				t.Errorf("Testall on an inactive list ran %d progress rounds, want 1", n)
			}
		} else if now := th.S.Now(); now != start {
			t.Errorf("%s on an inactive request took %d ns, want 0", call.name, now-start)
		}
	})
	err := w.Run()
	// The error the cell must raise, if any.
	var want Errcode
	switch {
	case cell == "truncated":
		want = ErrTruncate
	case cell == "freed" && !call.list:
		want = ErrRequest
	}
	if want == ErrSuccess || h == ErrorsReturn {
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if want != ErrSuccess && !isCode(got, want) {
			t.Fatalf("%s reported %v, want %v", call.name, got, want)
		}
		if want == ErrSuccess && got != nil {
			t.Fatalf("%s reported %v, want no error", call.name, got)
		}
		return
	}
	var perr *sim.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("run returned %v, want a *sim.PanicError raising %v", err, want)
	}
	if !strings.Contains(fmt.Sprint(perr.Value), want.String()) {
		t.Fatalf("panic %v, want %v", perr.Value, want)
	}
}

// pooled reports whether r sits on its shard's request free list.
func pooled(r *Request) bool {
	for q := r.p.vcis[reqShard(r)].reqFree; q != nil; q = q.nextFree {
		if q == r {
			return true
		}
	}
	return false
}

// TestCompletionRecycles: a fault-free send or receive reaped by Wait,
// Waitall, Test or Testall goes back to its shard's pool in every progress
// mode (continuation-mode Waitall on its drain side), so the next Isend or
// Irecv on that shard reuses the object; the receive's payload is already
// in its slot. A failed send is never pooled, and its error stays
// readable.
func TestCompletionRecycles(t *testing.T) {
	for _, mode := range progressModes {
		for _, call := range completionCalls {
			mode, call := mode, call
			t.Run(mode.String()+"/"+call.name, func(t *testing.T) {
				forEachVCI(t, func(t *testing.T, opt func(*Config)) {
					w := testWorld(t, 2, opt, withProgress(mode), func(c *Config) { c.MaxEvents = 200_000 })
					w.SetErrhandler(ErrorsReturn)
					c := w.Comm()
					w.Spawn(0, "sender", func(th *Thread) {
						s := th.Isend(c, 1, 5, 8, "x")
						if err := call.reap(t, th, s); err != nil {
							t.Errorf("send: %v", err)
						}
						next := th.Isend(c, 1, 5, 8, "y")
						if next != s {
							t.Error("next Isend did not reuse the reaped send")
						}
						if err := th.Wait(next); err != nil {
							t.Errorf("second send: %v", err)
						}

						// A poolable send failed in place, as a transport
						// give-up would fail it.
						p, v := th.P, len(th.P.vcis)-1
						bad := p.allocReq(v)
						*bad = Request{p: p, kind: SendReq, dst: 1, comm: c, maxBytes: -1, poolable: true, vci: v}
						p.outstanding++
						bad.fail(ErrProcFailed, th.S.Now())
						if err := call.reap(t, th, bad); !isCode(err, ErrProcFailed) {
							t.Errorf("failed send reported %v, want MPI_ERR_PROC_FAILED", err)
						}
						if pooled(bad) || !isCode(bad.Err(), ErrProcFailed) {
							t.Errorf("failed send pooled=%v err=%v; want it kept out of the pool, error readable", pooled(bad), bad.Err())
						}
					})
					w.Spawn(1, "receiver", func(th *Thread) {
						var got interface{}
						r := th.IrecvN(c, 0, 5, -1, &got)
						if err := call.reap(t, th, r); err != nil {
							t.Errorf("recv: %v", err)
						}
						if !pooled(r) || got != "x" {
							t.Errorf("receive pooled=%v data=%v; want pooled, data x", pooled(r), got)
						}
						next := th.Irecv(c, 0, 5)
						if next != r {
							t.Error("next Irecv did not reuse the reaped receive")
						}
						if err := th.Wait(next); err != nil {
							t.Errorf("second recv: %v", err)
						}
					})
					if err := w.Run(); err != nil {
						t.Fatal(err)
					}
				})
			})
		}
	}
}

// TestTestallDrainsList: Testall is called again on the list it returned
// until that list is empty. A receive it took goes back to its shard's
// pool at once, so an Irecv posted while the rest of the list is still
// pending reuses the object; the returned list no longer names it, so the
// drain never sees the reuse, and every receive gets its own payload.
func TestTestallDrainsList(t *testing.T) {
	for _, mode := range progressModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			forEachVCI(t, func(t *testing.T, opt func(*Config)) {
				w := testWorld(t, 2, opt, withProgress(mode), func(c *Config) { c.MaxEvents = 200_000 })
				c := w.Comm()
				w.Spawn(0, "sender", func(th *Thread) {
					th.Send(c, 1, 5, 8, "a")
					th.S.Sleep(100_000)
					th.Send(c, 1, 5, 8, "b")
					th.Send(c, 1, 5, 8, "c")
				})
				w.Spawn(1, "receiver", func(th *Thread) {
					var a, b, next interface{}
					first, second := th.IrecvN(c, 0, 5, -1, &a), th.IrecvN(c, 0, 5, -1, &b)
					rs := []*Request{first, second}
					for rs = th.Testall(rs); len(rs) == 2; rs = th.Testall(rs) {
						th.S.Sleep(500)
					}
					if len(rs) != 1 || rs[0] != second {
						t.Fatalf("Testall left %v pending, want only the second receive", rs)
					}
					r := th.IrecvN(c, 0, 5, -1, &next)
					if r != first {
						t.Errorf("Irecv got %p, want the taken first receive %p from the pool", r, first)
					}
					for ; len(rs) > 0; rs = th.Testall(rs) {
						th.S.Sleep(500)
					}
					if err := th.Wait(r); err != nil {
						t.Errorf("later receive: %v", err)
					}
					if a != "a" || b != "b" || next != "c" {
						t.Errorf("payloads %v, %v, %v; want a, b, c", a, b, next)
					}
				})
				if err := w.Run(); err != nil {
					t.Fatal(err)
				}
				if n := w.DanglingNow(); n != 0 {
					t.Fatalf("dangling requests: %d", n)
				}
			})
		})
	}
}

// TestTestallEmptyPolls pins the round graph500's drain loop relies on:
// Testall on a list with no active entry (nil, or only nil entries) still
// runs exactly one high-class progress round, on shard 0, and returns an
// empty list. The fig10 lock sequences count that round. Each call
// records one "Testall" call span, as Test records "Test".
func TestTestallEmptyPolls(t *testing.T) {
	for _, mode := range progressModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			forEachVCI(t, func(t *testing.T, opt func(*Config)) {
				rec := telemetry.NewTrace()
				w := testWorld(t, 2, opt, withProgress(mode), func(c *Config) { c.Tel = rec })
				w.Spawn(0, "tester", func(th *Thread) {
					for _, rs := range [][]*Request{nil, {nil}} {
						polls := th.P.Polls
						if out := th.Testall(rs); len(out) != 0 {
							t.Errorf("Testall(%v) = %v, want empty", rs, out)
						}
						if n := th.P.Polls - polls; n != 1 {
							t.Errorf("Testall(%v) ran %d progress rounds, want 1", rs, n)
						}
					}
				})
				if err := w.Run(); err != nil {
					t.Fatal(err)
				}
				spans := 0
				for _, sp := range rec.Spans() {
					if sp.Kind == telemetry.SpanCall && sp.Name == "Testall" {
						spans++
					}
				}
				if spans != 2 {
					t.Errorf("%d Testall call spans, want 2", spans)
				}
				shard0 := "cs[r0]"
				if len(w.Procs[0].vcis) > 1 {
					shard0 = "cs[r0.v0]"
				}
				for _, l := range rec.Profile().Locks {
					if !strings.HasPrefix(l.Name, "cs[r0") {
						continue
					}
					want := int64(0)
					if l.Name == shard0 {
						want = 2
					}
					if l.HighAcq != want || l.LowAcq != 0 {
						t.Errorf("%s: %d high / %d low acquisitions, want %d high / 0 low", l.Name, l.HighAcq, l.LowAcq, want)
					}
				}
			})
		})
	}
}
