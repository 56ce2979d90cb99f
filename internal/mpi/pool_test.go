package mpi

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mpicontend/internal/fault"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/simlock"
)

// poolSize counts the request objects on p's shard free lists.
func poolSize(p *Proc) int {
	n := 0
	for _, sh := range p.vcis {
		for q := sh.reqFree; q != nil; q = q.nextFree {
			n++
		}
	}
	return n
}

// TestRecvReusesItsRequest: the receive of a Recv or a sendrecvE goes back
// to its shard's pool once its wait consumed it, so the next Irecv on that
// shard gets the same object, and the payload the call returned (read
// from the thread's slot) is not touched by the reuse.
func TestRecvReusesItsRequest(t *testing.T) {
	for _, mode := range progressModes {
		t.Run(mode.String(), func(t *testing.T) {
			forEachVCI(t, func(t *testing.T, opt func(*Config)) {
				w := testWorld(t, 2, opt, withProgress(mode), func(c *Config) { c.MaxEvents = 200_000 })
				c := w.Comm()
				w.Spawn(0, "sender", func(th *Thread) {
					th.Send(c, 1, 5, 8, "x")
					th.Send(c, 1, 5, 8, "y")
					if got, err := th.sendrecvE(c, 1, 6, 8, "p", 1, 6); err != nil || got != "q" {
						t.Errorf("sender's sendrecvE got %v, %v, want q", got, err)
					}
				})
				w.Spawn(1, "receiver", func(th *Thread) {
					p := th.P
					got := th.Recv(c, 0, 5)
					if th.slot != nil {
						t.Errorf("Recv left %v in the thread's slot", th.slot)
					}
					head := p.vcis[p.selectVCI(c, 5)].reqFree
					var next interface{}
					r := th.IrecvN(c, 0, 5, -1, &next)
					if head == nil || r != head {
						t.Errorf("Irecv after Recv got %p, want Recv's pooled request %p", r, head)
					}
					if err := th.Wait(r); err != nil {
						t.Errorf("Wait: %v", err)
					}
					if got != "x" || next != "y" {
						t.Errorf("Recv returned %v and the reused request delivered %v, want x and y", got, next)
					}

					got, err := th.sendrecvE(c, 0, 6, 8, "q", 0, 6)
					if err != nil {
						t.Errorf("sendrecvE: %v", err)
					}
					head = p.vcis[p.selectVCI(c, 6)].reqFree
					r = th.Irecv(c, 0, 6)
					if head == nil || r != head {
						t.Errorf("Irecv after sendrecvE got %p, want its pooled receive %p", r, head)
					}
					th.CancelRecv(r)
					if got != "p" {
						t.Errorf("sendrecvE returned %v, want p", got)
					}
				})
				if err := w.Run(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestReceivesNotPooled: receives stay out of the pool when a late
// protocol event or a tombstone copy may still name them. A truncated
// receive keeps its error readable and leaves its slot untouched; a
// cross-VCI wildcard Recv leaves copies on the shards that did not match
// it; under the reliable transport retransmit state may still reference
// any request.
func TestReceivesNotPooled(t *testing.T) {
	for _, mode := range progressModes {
		t.Run(mode.String(), func(t *testing.T) {
			forEachVCI(t, func(t *testing.T, opt func(*Config)) {
				t.Run("truncated", func(t *testing.T) {
					w := testWorld(t, 2, opt, withProgress(mode), func(c *Config) { c.MaxEvents = 200_000 })
					w.SetErrhandler(ErrorsReturn)
					c := w.Comm()
					w.Spawn(0, "sender", func(th *Thread) { th.Send(c, 1, 0, 64, "wide") })
					w.Spawn(1, "receiver", func(th *Thread) {
						var got interface{} = "untouched"
						r := th.IrecvN(c, 0, 0, 8, &got)
						if err := th.Wait(r); !isCode(err, ErrTruncate) {
							t.Errorf("Wait = %v, want MPI_ERR_TRUNCATE", err)
						}
						if pooled(r) || !isCode(r.Err(), ErrTruncate) || got != "untouched" {
							t.Errorf("truncated receive pooled=%v err=%v slot=%v; want it kept out, error readable, slot untouched", pooled(r), r.Err(), got)
						}
					})
					if err := w.Run(); err != nil {
						t.Fatal(err)
					}
				})
				t.Run("wildcard", func(t *testing.T) {
					w := testWorld(t, 2, opt, withProgress(mode), func(c *Config) { c.MaxEvents = 200_000 })
					c := w.Comm()
					w.Spawn(0, "sender", func(th *Thread) { th.Send(c, 1, 3, 8, "x") })
					w.Spawn(1, "receiver", func(th *Thread) {
						if got := th.Recv(c, 0, AnyTag); got != "x" {
							t.Errorf("Recv got %v, want x", got)
						}
						// Only this receive ever ran on the proc: it is pooled
						// unless it took the cross-VCI path.
						want := 1
						if th.P.vciWildcard(AnyTag) {
							want = 0
						}
						if n := poolSize(th.P); n != want {
							t.Errorf("%d pooled requests after an AnyTag Recv, want %d", n, want)
						}
					})
					if err := w.Run(); err != nil {
						t.Fatal(err)
					}
				})
				t.Run("reliable", func(t *testing.T) {
					w := testWorld(t, 2, opt, withProgress(mode), withFault(fault.Config{DupProb: 0.5}),
						func(c *Config) { c.MaxEvents = 500_000 })
					c := w.Comm()
					w.Spawn(0, "sender", func(th *Thread) {
						for i := 0; i < 4; i++ {
							th.Send(c, 1, 2, 8, i)
						}
					})
					w.Spawn(1, "receiver", func(th *Thread) {
						for i := 0; i < 4; i++ {
							if got := th.Recv(c, 0, 2); got != i {
								t.Errorf("Recv %d got %v", i, got)
							}
						}
						if n := poolSize(th.P); n != 0 {
							t.Errorf("%d pooled requests under the reliable transport, want 0", n)
						}
					})
					if err := w.Run(); err != nil {
						t.Fatal(err)
					}
				})
			})
		})
	}
}

// slotCase is one cell of TestSlotDelivery. post issues the receive or
// get that delivers into slot; complete finishes it. send, if set, runs
// on rank 0.
type slotCase struct {
	name     string
	send     func(th *Thread, c *Comm)
	post     func(th *Thread, c *Comm, win *Win, slot *interface{}) *Request
	complete func(t *testing.T, th *Thread, r *Request, slot *interface{}) error
	// want is the slot's content after completion; "untouched" means the
	// slot must keep its initial value.
	want interface{}
}

// waitSlot completes r with Wait.
func waitSlot(t *testing.T, th *Thread, r *Request, slot *interface{}) error { return th.Wait(r) }

// recvSlot posts a tag-1 receive from rank 0 into slot.
func recvSlot(th *Thread, c *Comm, win *Win, slot *interface{}) *Request {
	return th.IrecvN(c, 0, 1, -1, slot)
}

var slotCases = []slotCase{
	{name: "eager", want: "e",
		send: func(th *Thread, c *Comm) { th.S.Sleep(50_000); th.Send(c, 1, 1, 8, "e") },
		post: recvSlot, complete: waitSlot},
	{name: "rendezvous", want: "r",
		send: func(th *Thread, c *Comm) {
			th.S.Sleep(50_000)
			th.Send(c, 1, 1, th.cost().EagerThreshold+1, "r")
		},
		post: recvSlot, complete: waitSlot},
	{name: "unexpected", want: "u",
		send: func(th *Thread, c *Comm) { th.Send(c, 1, 1, 8, "u") },
		post: func(th *Thread, c *Comm, win *Win, slot *interface{}) *Request {
			for len(th.P.vcis[th.P.selectVCI(c, 1)].unexp) == 0 {
				th.Iprobe(c, 0, 1)
				th.S.Sleep(1_000)
			}
			r := th.IrecvN(c, 0, 1, -1, slot)
			if th.P.UnexpectedHits == 0 {
				panic("receive did not match the unexpected queue")
			}
			return r
		},
		complete: waitSlot},
	{name: "AnySource", want: "s",
		send: func(th *Thread, c *Comm) { th.Send(c, 1, 1, 8, "s") },
		post: func(th *Thread, c *Comm, win *Win, slot *interface{}) *Request {
			return th.IrecvN(c, AnySource, 1, -1, slot)
		},
		complete: waitSlot},
	{name: "AnyTag", want: "t",
		send: func(th *Thread, c *Comm) { th.Send(c, 1, 1, 8, "t") },
		post: func(th *Thread, c *Comm, win *Win, slot *interface{}) *Request {
			return th.IrecvN(c, 0, AnyTag, -1, slot)
		},
		complete: waitSlot},
	{name: "truncated", want: "untouched",
		send: func(th *Thread, c *Comm) { th.Send(c, 1, 1, 64, "wide") },
		post: func(th *Thread, c *Comm, win *Win, slot *interface{}) *Request {
			return th.IrecvN(c, 0, 1, 8, slot)
		},
		complete: func(t *testing.T, th *Thread, r *Request, slot *interface{}) error {
			if err := th.Wait(r); !isCode(err, ErrTruncate) {
				t.Errorf("Wait = %v, want MPI_ERR_TRUNCATE", err)
			}
			return nil
		}},
	{name: "get",
		post: func(th *Thread, c *Comm, win *Win, slot *interface{}) *Request {
			return th.Get(win, 0, 1, 2, slot)
		},
		complete: waitSlot},
}

// TestSlotDelivery: a receive or get writes its payload into the slot its
// caller gave at post time, on every delivery path — posted eager and
// rendezvous matches, an unexpected-queue match, wildcard receives and an
// RMA get — in every progress mode and shard layout. A truncated
// receive leaves the slot untouched.
func TestSlotDelivery(t *testing.T) {
	for _, mode := range progressModes {
		for _, sc := range slotCases {
			mode, sc := mode, sc
			t.Run(mode.String()+"/"+sc.name, func(t *testing.T) {
				forEachVCI(t, func(t *testing.T, opt func(*Config)) {
					w := testWorld(t, 2, opt, withProgress(mode), func(c *Config) { c.MaxEvents = 500_000 })
					w.SetErrhandler(ErrorsReturn)
					c := w.Comm()
					win := w.NewWin(4)
					copy(win.Buffer(0), []float64{0, 1.5, 2.5, 0})
					want := sc.want
					if sc.name == "get" {
						want = nil // checked below
						if mode == ProgressPolling {
							w.SpawnAsyncProgress(0) // passive target
						}
					}
					if sc.send != nil {
						w.Spawn(0, "sender", func(th *Thread) { sc.send(th, c) })
					}
					var slot interface{} = "untouched"
					w.Spawn(1, "receiver", func(th *Thread) {
						r := sc.post(th, c, win, &slot)
						if err := sc.complete(t, th, r, &slot); err != nil {
							t.Errorf("completion: %v", err)
						}
					})
					if err := w.Run(); err != nil {
						t.Fatal(err)
					}
					if sc.name == "get" {
						if got, ok := slot.([]float64); !ok || len(got) != 2 || got[0] != 1.5 || got[1] != 2.5 {
							t.Fatalf("get delivered %v, want [1.5 2.5]", slot)
						}
						return
					}
					if slot != want {
						t.Fatalf("slot holds %v, want %v", slot, want)
					}
				})
			})
		}
	}
}

// TestRecycledReceiveWritesNewSlot: a receive recycled by Waitall and
// handed out again by the next Irecv on its shard delivers only into its
// new owner's slot; the first owner's slot keeps its own payload.
func TestRecycledReceiveWritesNewSlot(t *testing.T) {
	for _, mode := range progressModes {
		t.Run(mode.String(), func(t *testing.T) {
			forEachVCI(t, func(t *testing.T, opt func(*Config)) {
				w := testWorld(t, 2, opt, withProgress(mode), func(c *Config) { c.MaxEvents = 200_000 })
				c := w.Comm()
				w.Spawn(0, "sender", func(th *Thread) {
					th.Send(c, 1, 4, 8, "first")
					th.S.Sleep(50_000)
					th.Send(c, 1, 4, 8, "second")
				})
				w.Spawn(1, "receiver", func(th *Thread) {
					var a, b interface{}
					r := th.IrecvN(c, 0, 4, -1, &a)
					if err := th.Waitall([]*Request{r}); err != nil {
						t.Errorf("first Waitall: %v", err)
					}
					next := th.IrecvN(c, 0, 4, -1, &b)
					if next != r {
						t.Errorf("next Irecv got %p, want the recycled %p", next, r)
					}
					if err := th.Waitall([]*Request{next}); err != nil {
						t.Errorf("second Waitall: %v", err)
					}
					if a != "first" || b != "second" {
						t.Errorf("slots hold %v and %v, want first and second", a, b)
					}
				})
				if err := w.Run(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestRecycledRequestPanics: the exported accessors of a request its wait
// recycled panic instead of reading a pooled object.
func TestRecycledRequestPanics(t *testing.T) {
	w := testWorld(t, 2)
	c := w.Comm()
	w.Spawn(0, "sender", func(th *Thread) { th.Send(c, 1, 0, 8, "x") })
	w.Spawn(1, "receiver", func(th *Thread) {
		r := th.Irecv(c, 0, 0)
		if err := th.Wait(r); err != nil {
			t.Errorf("Wait: %v", err)
		}
		reads := []struct {
			name string
			read func()
		}{
			{"Err", func() { r.Err() }}, {"Complete", func() { r.Complete() }},
			{"Freed", func() { r.Freed() }}, {"Kind", func() { r.Kind() }},
		}
		for _, a := range reads {
			func() {
				defer func() {
					if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "recycled") {
						t.Errorf("%s on a recycled request: recovered %v, want the use-after-recycle panic", a.name, v)
					}
				}()
				a.read()
			}()
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEnvelopeReuseIsClean: a receive that matches an unexpected envelope
// returns it to its shard's pool cleared, and the next unexpected arrival
// on that shard reuses it carrying only its own fields — no sender
// request or payload of the message the envelope held before. The first
// arrival is a rendezvous RTS (an envelope with a sender request), the
// second an eager message with a payload, taken by an AnyTag receive
// (the cross-VCI path on a tag-hashed sharded proc).
func TestEnvelopeReuseIsClean(t *testing.T) {
	for _, mode := range progressModes {
		t.Run(mode.String(), func(t *testing.T) {
			forEachVCI(t, func(t *testing.T, opt func(*Config)) {
				w := testWorld(t, 2, opt, withProgress(mode), func(c *Config) { c.MaxEvents = 500_000 })
				c := w.Comm()
				big := w.Cfg.Cost.EagerThreshold + 1
				w.Spawn(0, "sender", func(th *Thread) {
					rs := []*Request{th.Isend(c, 1, 1, big, "big"), th.Isend(c, 1, 1, 8, "x")}
					if err := th.Waitall(rs); err != nil {
						t.Errorf("Waitall: %v", err)
					}
					th.Recv(c, 1, 99) // go-ahead
					th.Send(c, 1, 1, 8, "z")
				})
				w.Spawn(1, "receiver", func(th *Thread) {
					sh := th.P.vcis[th.P.selectVCI(c, 1)]
					// Let both arrivals land in the unexpected queue.
					for len(sh.unexp) < 2 {
						th.Iprobe(c, 0, 1)
						th.S.Sleep(1_000)
					}
					if got := th.Recv(c, 0, 1); got != "big" {
						t.Errorf("first Recv got %v, want big", got)
					}
					if got := th.Recv(c, 0, AnyTag); got != "x" {
						t.Errorf("AnyTag Recv got %v, want x", got)
					}
					free := 0
					for _, s := range th.P.vcis {
						for e := s.envFree; e != nil; e = e.nextFree {
							free++
							if *e != (envelope{nextFree: e.nextFree}) {
								t.Errorf("pooled envelope not cleared: %+v", *e)
							}
						}
					}
					if free != 2 {
						t.Errorf("%d pooled envelopes after two unexpected matches, want 2", free)
					}
					head := sh.envFree
					th.Send(c, 0, 99, 0, nil)
					for len(sh.unexp) < 1 {
						th.Iprobe(c, 0, 1)
						th.S.Sleep(1_000)
					}
					e := sh.unexp[0]
					if head == nil || e != head {
						t.Errorf("the next arrival got envelope %p, want the pooled %p", e, head)
					}
					if e.senderReq != nil || e.rndv || e.payload != "z" || e.bytes != 8 {
						t.Errorf("reused envelope %+v, want an eager z of 8 bytes and no sender request", *e)
					}
					if got := th.Recv(c, 0, 1); got != "z" {
						t.Errorf("third Recv got %v, want z", got)
					}
				})
				if err := w.Run(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestIsendIrecvAllocsPerMessage gates the allocation cost of the
// lockstorm shape — eight threads per rank, windows of 64-byte
// Isend/Irecv completed by Waitall, one VCI, polling, the futex mutex —
// after warm-up. Sends, receives, packets and envelopes all come from
// pools: a receive delivers into its caller's slot, so Waitall recycles it.
func TestIsendIrecvAllocsPerMessage(t *testing.T) {
	const threads, window, windows, warm = 8, 64, 30, 10
	w := testWorld(t, 2, func(c *Config) { c.Lock = simlock.KindMutex })
	c := w.Comm()
	var ms runtime.MemStats
	var mallocs0, mallocs1 uint64
	done := 0
	for i := 0; i < threads; i++ {
		tag := i
		w.Spawn(0, "sender", func(th *Thread) {
			rs := make([]*Request, window)
			for n := 0; n < windows; n++ {
				for j := range rs {
					rs[j] = th.Isend(c, 1, tag, 64, nil)
				}
				if err := th.Waitall(rs); err != nil {
					t.Errorf("send Waitall: %v", err)
				}
			}
		})
		w.Spawn(1, "receiver", func(th *Thread) {
			rs := make([]*Request, window)
			bufs := make([]interface{}, window)
			for n := 0; n < windows; n++ {
				for j := range rs {
					rs[j] = th.IrecvN(c, 0, tag, -1, &bufs[j])
				}
				if err := th.Waitall(rs); err != nil {
					t.Errorf("receive Waitall: %v", err)
				}
				done++
				switch done {
				case threads * warm:
					runtime.ReadMemStats(&ms)
					mallocs0 = ms.Mallocs
				case threads * windows:
					runtime.ReadMemStats(&ms)
					mallocs1 = ms.Mallocs
				}
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	msgs := threads * (windows - warm) * window
	perMsg := float64(mallocs1-mallocs0) / float64(msgs)
	t.Logf("%d messages after warm-up: %.4f allocs/message", msgs, perMsg)
	if perMsg > 0.1 {
		t.Fatalf("%.4f allocs per message, want <= 0.1", perMsg)
	}
}

// TestSendRecvAllocsPerMessage gates the genome shape — a client's
// blocking Send then Recv against a server's AnySource Recv then Send,
// with nil payloads — in every progress mode, after warm-up: every
// request, packet and envelope the runtime uses comes back from its pool.
// Every other reply is probed first, so it lands in the unexpected queue.
func TestSendRecvAllocsPerMessage(t *testing.T) {
	const iters, warm, tagWork, tagReply = 1500, 500, 1, 2
	for _, mode := range progressModes {
		t.Run(mode.String(), func(t *testing.T) {
			w := testWorld(t, 2, withProgress(mode), func(c *Config) { c.Lock = simlock.KindMutex })
			c := w.Comm()
			var ms runtime.MemStats
			var mallocs0, mallocs1 uint64
			w.Spawn(0, "client", func(th *Thread) {
				for i := 0; i < iters; i++ {
					if i == warm {
						runtime.ReadMemStats(&ms)
						mallocs0 = ms.Mallocs
					}
					th.Send(c, 1, tagWork, 16, nil)
					if i%2 == 1 {
						th.Probe(c, 1, tagReply)
					}
					th.Recv(c, 1, tagReply)
				}
				runtime.ReadMemStats(&ms)
				mallocs1 = ms.Mallocs
			})
			w.Spawn(1, "server", func(th *Thread) {
				for i := 0; i < iters; i++ {
					th.Recv(c, AnySource, tagWork)
					th.Send(c, 0, tagReply, 16, nil)
				}
			})
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			if p := w.Proc(0); p.UnexpectedHits == 0 || p.PostedHits == 0 {
				t.Fatalf("workload missed a path: %d unexpected, %d posted matches", p.UnexpectedHits, p.PostedHits)
			}
			msgs := 2 * (iters - warm)
			perMsg := float64(mallocs1-mallocs0) / float64(msgs)
			t.Logf("%d messages after warm-up: %.4f allocs/message", msgs, perMsg)
			if perMsg > 0.1 {
				t.Fatalf("%.4f allocs per message, want <= 0.1", perMsg)
			}
		})
	}
}

// TestContinuationAllocsPerMessage gates the allocation cost of the
// continuation-mode message path — the remedies shape: per-thread tags on
// four tag-hashed VCIs, windows of Isend/IrecvN completed by Waitall,
// which registers them on the thread's completion queue and drains it
// while the shard daemons progress — after warm-up. Every wake of a
// daemon or a draining thread whose queue is still empty is re-queued by
// the engine, so this also covers the quiet-wake path under load. The
// senders run ahead of their receivers, so the unexpected queues, and
// with them the envelope and packet pools, keep growing: that is the
// 0.5 allocs/message the bound allows.
func TestContinuationAllocsPerMessage(t *testing.T) {
	const threads, window, windows, warm = 4, 32, 30, 10
	w := testWorld(t, 2, withProgress(ProgressContinuation), withVCIs(4, vci.PerTagHash),
		func(c *Config) { c.Lock = simlock.KindMutex })
	c := w.Comm()
	var ms runtime.MemStats
	var mallocs0, mallocs1 uint64
	done := 0
	for i := 0; i < threads; i++ {
		tag := i
		w.Spawn(0, "sender", func(th *Thread) {
			rs := make([]*Request, window)
			for n := 0; n < windows; n++ {
				for j := range rs {
					rs[j] = th.Isend(c, 1, tag, 64, nil)
				}
				if err := th.Waitall(rs); err != nil {
					t.Errorf("send Waitall: %v", err)
				}
			}
		})
		w.Spawn(1, "receiver", func(th *Thread) {
			rs := make([]*Request, window)
			bufs := make([]interface{}, window)
			for n := 0; n < windows; n++ {
				for j := range rs {
					rs[j] = th.IrecvN(c, 0, tag, -1, &bufs[j])
				}
				if err := th.Waitall(rs); err != nil {
					t.Errorf("receive Waitall: %v", err)
				}
				done++
				switch done {
				case threads * warm:
					runtime.ReadMemStats(&ms)
					mallocs0 = ms.Mallocs
				case threads * windows:
					runtime.ReadMemStats(&ms)
					mallocs1 = ms.Mallocs
				}
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	msgs := threads * (windows - warm) * window
	perMsg := float64(mallocs1-mallocs0) / float64(msgs)
	t.Logf("%d messages after warm-up: %.4f allocs/message", msgs, perMsg)
	if perMsg > 0.55 {
		t.Fatalf("%.4f allocs per message, want <= 0.55", perMsg)
	}
}
