package mpi

import (
	"runtime"
	"testing"

	"mpicontend/internal/fault"
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

// TestRecvReusesItsRequest: the receive of a Recv or a Sendrecv goes back
// to its shard's pool once the payload has been read, so the next Irecv
// on that shard gets the same object, and the payload the call returned
// is not touched by the reuse.
func TestRecvReusesItsRequest(t *testing.T) {
	for _, mode := range progressModes {
		t.Run(mode.String(), func(t *testing.T) {
			forEachVCI(t, func(t *testing.T, opt func(*Config)) {
				w := testWorld(t, 2, opt, withProgress(mode), func(c *Config) { c.MaxEvents = 200_000 })
				c := w.Comm()
				w.Spawn(0, "sender", func(th *Thread) {
					th.Send(c, 1, 5, 8, "x")
					th.Send(c, 1, 5, 8, "y")
					if got := th.Sendrecv(c, 1, 6, 8, "p", 1, 6); got != "q" {
						t.Errorf("sender's Sendrecv got %v, want q", got)
					}
				})
				w.Spawn(1, "receiver", func(th *Thread) {
					p := th.P
					got := th.Recv(c, 0, 5)
					head := p.vcis[p.selectVCI(c, 5)].reqFree
					r := th.Irecv(c, 0, 5)
					if head == nil || r != head {
						t.Errorf("Irecv after Recv got %p, want Recv's pooled request %p", r, head)
					}
					if err := th.Wait(r); err != nil {
						t.Errorf("Wait: %v", err)
					}
					if got != "x" || r.Data() != "y" {
						t.Errorf("Recv returned %v and the reused request delivered %v, want x and y", got, r.Data())
					}

					got = th.Sendrecv(c, 0, 6, 8, "q", 0, 6)
					head = p.vcis[p.selectVCI(c, 6)].reqFree
					r = th.Irecv(c, 0, 6)
					if head == nil || r != head {
						t.Errorf("Irecv after Sendrecv got %p, want its pooled receive %p", r, head)
					}
					th.CancelRecv(r)
					if got != "p" {
						t.Errorf("Sendrecv returned %v, want p", got)
					}
				})
				if err := w.Run(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestInternalReceivesNotPooled: the receives the runtime consumes itself
// stay out of the pool when a late protocol event or a tombstone copy may
// still name them. A truncated receive (Recv's wait and consume steps on
// a bounded IrecvN) keeps its error readable; a cross-VCI wildcard Recv
// leaves copies on the shards that did not match it; under the reliable
// transport retransmit state may still reference any request.
func TestInternalReceivesNotPooled(t *testing.T) {
	for _, mode := range progressModes {
		t.Run(mode.String(), func(t *testing.T) {
			forEachVCI(t, func(t *testing.T, opt func(*Config)) {
				t.Run("truncated", func(t *testing.T) {
					w := testWorld(t, 2, opt, withProgress(mode), func(c *Config) { c.MaxEvents = 200_000 })
					w.SetErrhandler(ErrorsReturn)
					c := w.Comm()
					w.Spawn(0, "sender", func(th *Thread) { th.Send(c, 1, 0, 64, "wide") })
					w.Spawn(1, "receiver", func(th *Thread) {
						r := th.IrecvN(c, 0, 0, 8)
						if err := th.Wait(r); !isCode(err, ErrTruncate) {
							t.Errorf("Wait = %v, want MPI_ERR_TRUNCATE", err)
						}
						th.P.consume(r)
						if pooled(r) || !isCode(r.Err(), ErrTruncate) {
							t.Errorf("truncated receive pooled=%v err=%v; want it kept out, error readable", pooled(r), r.Err())
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
// after warm-up. Sends, packets and envelopes come from pools; each user
// Irecv is still one fresh request, because its caller reads Data() after
// the wait.
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
			for n := 0; n < windows; n++ {
				for j := range rs {
					rs[j] = th.Irecv(c, 0, tag)
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
	if perMsg > 1.1 {
		t.Fatalf("%.4f allocs per message, want <= 1.1", perMsg)
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
