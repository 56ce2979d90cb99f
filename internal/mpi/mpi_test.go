package mpi

import (
	"fmt"
	"testing"

	"mpicontend/internal/machine"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
)

// testWorld builds a 2-node world with one proc per node unless overridden.
func testWorld(t *testing.T, nodes int, opts ...func(*Config)) *World {
	t.Helper()
	cfg := Config{
		Topo: machine.Nehalem2x4(nodes),
		Lock: simlock.KindTicket,
		Seed: 12345,
	}
	for _, o := range opts {
		o(&cfg)
	}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// forEachVCI runs fn as a subtest under each shard layout the wait family
// must handle: one shard and four, each under a tag-hashed mapping (where
// AnyTag receives and probes take the cross-shard wildcard path) and a
// per-communicator one (where they do not). opt configures the world.
func forEachVCI(t *testing.T, fn func(t *testing.T, opt func(*Config))) {
	for _, n := range []int{1, 4} {
		for _, pol := range []vci.Policy{vci.PerTagHash, vci.PerComm} {
			n, pol := n, pol
			t.Run(fmt.Sprintf("vcis=%d/%v", n, pol), func(t *testing.T) {
				fn(t, withVCIs(n, pol))
			})
		}
	}
}

// testOK is Test for a request that must not fail: it reports completion
// and fails the test on an error.
func testOK(t *testing.T, th *Thread, r *Request) bool {
	done, err := th.Test(r)
	if err != nil {
		t.Errorf("Test: %v", err)
	}
	return done
}

func TestEagerSendRecv(t *testing.T) {
	w := testWorld(t, 2)
	c := w.Comm()
	var got interface{}
	w.Spawn(0, "sender", func(th *Thread) {
		th.Send(c, 1, 7, 64, "hello")
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		got = th.Recv(c, 0, 7)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("got %v", got)
	}
	if w.DanglingNow() != 0 {
		t.Fatalf("dangling requests leaked: %d", w.DanglingNow())
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	w := testWorld(t, 2)
	c := w.Comm()
	big := w.Cfg.Cost.EagerThreshold * 4
	payload := make([]byte, 8) // token standing in for the large buffer
	var got interface{}
	var sendDone, recvDone int64
	w.Spawn(0, "sender", func(th *Thread) {
		th.Send(c, 1, 1, big, payload)
		sendDone = th.S.Now()
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		got = th.Recv(c, 0, 1)
		recvDone = th.S.Now()
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got.([]byte)) != 8 {
		t.Fatalf("payload lost: %v", got)
	}
	// A rendezvous of 128KB at ~3.2GB/s takes >= ~40us; both sides must
	// have waited for the wire.
	minWire := big * 1e9 / w.Cfg.Cost.NetBandwidth
	if recvDone < minWire || sendDone < minWire {
		t.Fatalf("rendezvous too fast: send %d recv %d, wire %d", sendDone, recvDone, minWire)
	}
}

func TestUnexpectedMessagePath(t *testing.T) {
	w := testWorld(t, 2)
	c := w.Comm()
	var got interface{}
	// Without a polling thread the arrival would sit in the network queue;
	// the async progress thread drains it into the unexpected queue first.
	w.SpawnAsyncProgress(1)
	w.Spawn(0, "sender", func(th *Thread) {
		th.Send(c, 1, 9, 32, 42)
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		th.S.Sleep(1_000_000) // 1ms: message arrives before the recv posts
		got = th.Recv(c, 0, 9)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %v", got)
	}
	if w.Proc(1).UnexpectedHits != 1 {
		t.Fatalf("unexpected hits = %d, want 1", w.Proc(1).UnexpectedHits)
	}
}

func TestUnexpectedRendezvous(t *testing.T) {
	w := testWorld(t, 2)
	c := w.Comm()
	big := w.Cfg.Cost.EagerThreshold * 2
	var got interface{}
	w.Spawn(0, "sender", func(th *Thread) {
		th.Send(c, 1, 3, big, "bulk")
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		th.S.Sleep(500_000)
		got = th.Recv(c, 0, 3)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "bulk" {
		t.Fatalf("got %v", got)
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	w := testWorld(t, 2)
	c := w.Comm()
	var first, second interface{}
	w.Spawn(0, "sender", func(th *Thread) {
		th.Send(c, 1, 5, 8, "tag5")
		th.Send(c, 1, 6, 8, "tag6")
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		// Post in reverse tag order: matching must respect tags.
		r6 := th.IrecvN(c, 0, 6, -1, &first)
		r5 := th.IrecvN(c, 0, 5, -1, &second)
		th.Wait(r6)
		th.Wait(r5)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if first != "tag6" || second != "tag5" {
		t.Fatalf("mismatched: %v %v", first, second)
	}
}

func TestWildcardReceive(t *testing.T) {
	w := testWorld(t, 3)
	c := w.Comm()
	for r := 1; r < 3; r++ {
		r := r
		w.Spawn(r, "sender", func(th *Thread) {
			th.Send(c, 0, r, 8, r)
		})
	}
	sum := 0
	w.Spawn(0, "receiver", func(th *Thread) {
		for i := 0; i < 2; i++ {
			v := th.Recv(c, AnySource, AnyTag)
			sum += v.(int)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 3 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestMessageOrderingPerPair(t *testing.T) {
	// MPI non-overtaking: same (src,dst,tag) messages arrive in order.
	w := testWorld(t, 2)
	c := w.Comm()
	const n = 20
	w.Spawn(0, "sender", func(th *Thread) {
		for i := 0; i < n; i++ {
			th.Send(c, 1, 0, 16, i)
		}
	})
	var got []int
	w.Spawn(1, "receiver", func(th *Thread) {
		for i := 0; i < n; i++ {
			got = append(got, th.Recv(c, 0, 0).(int))
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

func TestWaitallWindow(t *testing.T) {
	forEachVCI(t, func(t *testing.T, opt func(*Config)) {
		w := testWorld(t, 2, opt)
		c := w.Comm()
		const window = 64
		w.Spawn(0, "sender", func(th *Thread) {
			var rs []*Request
			for i := 0; i < window; i++ {
				// Spread the window over several tags, so a tag-hashed
				// mapping spreads it over several shards.
				rs = append(rs, th.Isend(c, 1, i%4, 8, i))
			}
			th.Waitall(rs)
		})
		received := 0
		w.Spawn(1, "receiver", func(th *Thread) {
			var rs []*Request
			bufs := make([]interface{}, window)
			for i := 0; i < window; i++ {
				rs = append(rs, th.IrecvN(c, 0, i%4, -1, &bufs[i]))
			}
			th.Waitall(rs)
			for i, got := range bufs {
				if got != i {
					t.Errorf("receive %d got %v", i, got)
				}
			}
			received = window
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if received != window {
			t.Fatal("waitall did not finish")
		}
		if w.DanglingNow() != 0 {
			t.Fatalf("dangling after waitall: %d", w.DanglingNow())
		}
		if got := w.Proc(0).Outstanding() + w.Proc(1).Outstanding(); got != 0 {
			t.Fatalf("outstanding after waitall: %d", got)
		}
	})
}

func TestTestPolling(t *testing.T) {
	forEachVCI(t, func(t *testing.T, opt func(*Config)) {
		w := testWorld(t, 2, opt)
		c := w.Comm()
		w.Spawn(0, "sender", func(th *Thread) {
			th.S.Sleep(10_000)
			th.Send(c, 1, 0, 8, "x")
			th.S.Sleep(10_000)
			for tag := 1; tag <= 4; tag++ {
				th.Send(c, 1, tag, 8, tag)
			}
		})
		polls, testallPolls := 0, 0
		w.Spawn(1, "receiver", func(th *Thread) {
			r := th.Irecv(c, 0, 0)
			for !testOK(t, th, r) {
				polls++
				th.S.Sleep(500)
			}
			// An AnyTag receive under a tag-hashed mapping is an unbound
			// cross-shard wildcard until a message binds it.
			var got interface{}
			wild := th.IrecvN(c, 0, AnyTag, -1, &got)
			for !testOK(t, th, wild) {
				th.S.Sleep(500)
			}
			if got != 1 {
				t.Errorf("wildcard Test got %v, want the first message (1)", got)
			}
			var rs []*Request
			bufs := make([]interface{}, 3)
			for tag := 2; tag <= 4; tag++ {
				rs = append(rs, th.IrecvN(c, 0, tag, -1, &bufs[tag-2]))
			}
			all := append([]*Request(nil), rs...)
			for len(rs) > 0 {
				rs = th.Testall(rs)
				testallPolls++
				th.S.Sleep(500)
			}
			// Testall consumed every request it dropped from the list:
			// each went back to its shard's pool.
			for i, r := range all {
				if !pooled(r) || bufs[i] != i+2 {
					t.Errorf("Testall request %d: pooled=%v data=%v", i, pooled(r), bufs[i])
				}
			}
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if polls == 0 {
			t.Fatal("Test returned true before the message could arrive")
		}
		if testallPolls == 0 {
			t.Fatal("Testall loop never ran")
		}
		if w.DanglingNow() != 0 {
			t.Fatalf("dangling after Test/Testall: %d", w.DanglingNow())
		}
	})
}

func TestDanglingAccounting(t *testing.T) {
	w := testWorld(t, 2)
	c := w.Comm()
	var midCount int
	w.Spawn(0, "sender", func(th *Thread) {
		th.Send(c, 1, 0, 8, "x")
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		r := th.Irecv(c, 0, 0)
		// Busy-wait without freeing: once complete, it must be dangling.
		for !r.Complete() {
			th.enter(simlock.Low)
			th.P.pollShard(th, 0, 0)
			th.exit(simlock.Low)
			th.progressYield()
		}
		midCount = w.DanglingNow()
		th.enter(simlock.High)
		r.free()
		th.exit(simlock.High)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if midCount < 1 {
		t.Fatalf("dangling count = %d while completed request unfreed", midCount)
	}
	if w.DanglingNow() != 0 {
		t.Fatalf("dangling at end: %d", w.DanglingNow())
	}
}

func TestMultithreadedSharedTagMatching(t *testing.T) {
	// The paper's throughput benchmark: threads share src/tag so any
	// thread's message matches any receive.
	w := testWorld(t, 2)
	c := w.Comm()
	const threads, perThread = 4, 16
	for i := 0; i < threads; i++ {
		w.Spawn(0, "sender", func(th *Thread) {
			var rs []*Request
			for k := 0; k < perThread; k++ {
				rs = append(rs, th.Isend(c, 1, 0, 8, k))
			}
			th.Waitall(rs)
		})
		w.Spawn(1, "receiver", func(th *Thread) {
			var rs []*Request
			for k := 0; k < perThread; k++ {
				rs = append(rs, th.Irecv(c, 0, 0))
			}
			th.Waitall(rs)
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.DanglingNow() != 0 {
		t.Fatalf("dangling: %d", w.DanglingNow())
	}
}

func TestBarrier(t *testing.T) {
	for _, nodes := range []int{2, 3, 4, 7} {
		w := testWorld(t, nodes)
		c := w.Comm()
		var after []int64
		arrived := 0
		for r := 0; r < nodes; r++ {
			r := r
			w.Spawn(r, "p", func(th *Thread) {
				th.S.Sleep(int64(r) * 50_000) // staggered arrival
				arrived++
				th.Barrier(c)
				if arrived != nodes {
					t.Errorf("rank %d left barrier with %d/%d arrived", r, arrived, nodes)
				}
				after = append(after, th.S.Now())
			})
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if len(after) != nodes {
			t.Fatalf("%d ranks exited", len(after))
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 4, 6, 8} {
		w := testWorld(t, nodes)
		c := w.Comm()
		want := int64(nodes * (nodes + 1) / 2)
		for r := 0; r < nodes; r++ {
			r := r
			w.Spawn(r, "p", func(th *Thread) {
				got := th.AllreduceSum(c, int64(r+1))
				if got != want {
					t.Errorf("rank %d: allreduce = %d, want %d (n=%d)", r, got, want, nodes)
				}
			})
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceMax(t *testing.T) {
	nodes := 5
	w := testWorld(t, nodes)
	c := w.Comm()
	for r := 0; r < nodes; r++ {
		r := r
		w.Spawn(r, "p", func(th *Thread) {
			got := th.AllreduceMax(c, int64(r*10))
			if got != 40 {
				t.Errorf("rank %d: max = %d", r, got)
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	for _, root := range []int{0, 2} {
		nodes := 4
		w := testWorld(t, nodes)
		c := w.Comm()
		for r := 0; r < nodes; r++ {
			r := r
			w.Spawn(r, "p", func(th *Thread) {
				var v interface{}
				if r == root {
					v = "seed"
				}
				got := th.Bcast(c, root, 8, v)
				if got != "seed" {
					t.Errorf("rank %d: bcast got %v (root %d)", r, got, root)
				}
			})
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGather(t *testing.T) {
	nodes := 4
	w := testWorld(t, nodes)
	c := w.Comm()
	for r := 0; r < nodes; r++ {
		r := r
		w.Spawn(r, "p", func(th *Thread) {
			out := th.Gather(c, 0, 8, r*r)
			if r == 0 {
				for i, v := range out {
					if v != i*i {
						t.Errorf("gather[%d] = %v", i, v)
					}
				}
			} else if out != nil {
				t.Errorf("non-root got %v", out)
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRMAPutGet(t *testing.T) {
	w := testWorld(t, 2)
	win := w.NewWin(128)
	vals := []float64{1, 2, 3, 4}
	w.SpawnAsyncProgress(1)
	w.Spawn(0, "origin", func(th *Thread) {
		pr := th.Put(win, 1, 10, vals)
		th.Flush(win, []*Request{pr})
		var data interface{}
		gr := th.Get(win, 1, 10, 4, &data)
		th.Flush(win, []*Request{gr})
		got := data.([]float64)
		for i, v := range got {
			if v != vals[i] {
				t.Errorf("get[%d] = %v", i, v)
			}
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	buf := win.Buffer(1)
	for i, v := range vals {
		if buf[10+i] != v {
			t.Fatalf("window content wrong at %d: %v", i, buf[10+i])
		}
	}
}

func TestRMAAccumulate(t *testing.T) {
	w := testWorld(t, 2)
	win := w.NewWin(16)
	w.SpawnAsyncProgress(1)
	w.Spawn(0, "origin", func(th *Thread) {
		var rs []*Request
		for k := 0; k < 3; k++ {
			rs = append(rs, th.Accumulate(win, 1, 0, []float64{1, 10}))
		}
		th.Flush(win, rs)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	buf := win.Buffer(1)
	if buf[0] != 3 || buf[1] != 30 {
		t.Fatalf("accumulate result %v %v", buf[0], buf[1])
	}
}

func TestRMAWithoutAsyncProgressStillCompletes(t *testing.T) {
	// Target has a thread blocked in its own Wait, which drives progress
	// and services the put.
	w := testWorld(t, 2)
	c := w.Comm()
	win := w.NewWin(8)
	w.Spawn(0, "origin", func(th *Thread) {
		pr := th.Put(win, 1, 0, []float64{5})
		th.Flush(win, []*Request{pr})
		th.Send(c, 1, 0, 8, "done")
	})
	w.Spawn(1, "target", func(th *Thread) {
		th.Recv(c, 0, 0)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if win.Buffer(1)[0] != 5 {
		t.Fatalf("put not applied: %v", win.Buffer(1)[0])
	}
}

func TestIntraNodeMessaging(t *testing.T) {
	w := testWorld(t, 1, func(c *Config) { c.ProcsPerNode = 4 })
	c := w.Comm()
	if w.NumProcs() != 4 {
		t.Fatalf("procs = %d", w.NumProcs())
	}
	// Ring exchange among the 4 on-node processes.
	for r := 0; r < 4; r++ {
		r := r
		w.Spawn(r, "p", func(th *Thread) {
			got := th.Sendrecv(c, (r+1)%4, 0, 8, r, (r+3)%4, 0)
			if got != (r+3)%4 {
				t.Errorf("rank %d got %v", r, got)
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() int64 {
		w := testWorld(t, 2, func(c *Config) { c.Lock = simlock.KindMutex })
		c := w.Comm()
		var finish int64
		for i := 0; i < 4; i++ {
			w.Spawn(0, "s", func(th *Thread) {
				var rs []*Request
				for k := 0; k < 32; k++ {
					rs = append(rs, th.Isend(c, 1, 0, 8, k))
				}
				th.Waitall(rs)
			})
			w.Spawn(1, "r", func(th *Thread) {
				var rs []*Request
				for k := 0; k < 32; k++ {
					rs = append(rs, th.Irecv(c, 0, 0))
				}
				th.Waitall(rs)
				if th.S.Now() > finish {
					finish = th.S.Now()
				}
			})
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return finish
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func TestAllLockKindsDriveRuntime(t *testing.T) {
	kinds := []simlock.Kind{simlock.KindMutex, simlock.KindTicket,
		simlock.KindPriority, simlock.KindMCS, simlock.KindPrioMutex}
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			w := testWorld(t, 2, func(c *Config) { c.Lock = k })
			c := w.Comm()
			for i := 0; i < 4; i++ {
				w.Spawn(0, "s", func(th *Thread) {
					var rs []*Request
					for j := 0; j < 16; j++ {
						rs = append(rs, th.Isend(c, 1, 0, 8, j))
					}
					th.Waitall(rs)
				})
				w.Spawn(1, "r", func(th *Thread) {
					var rs []*Request
					for j := 0; j < 16; j++ {
						rs = append(rs, th.Irecv(c, 0, 0))
					}
					th.Waitall(rs)
				})
			}
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			if w.DanglingNow() != 0 {
				t.Fatalf("dangling: %d", w.DanglingNow())
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	_, err := NewWorld(Config{Topo: machine.Topology{}})
	if err == nil {
		t.Fatal("invalid topology accepted")
	}
	_, err = NewWorld(Config{Topo: machine.Nehalem2x4(1), ProcsPerNode: 100})
	if err == nil {
		t.Fatal("oversubscribed procs accepted")
	}
}

// TestLockObserverReceivesTraffic: the recorder, the runtime's one lock
// observer, sees the grants of both ranks' sections.
func TestLockObserverReceivesTraffic(t *testing.T) {
	rec := telemetry.New()
	w := testWorld(t, 2, func(c *Config) { c.Tel = rec })
	c := w.Comm()
	w.Spawn(0, "s", func(th *Thread) { th.Send(c, 1, 0, 8, nil) })
	w.Spawn(1, "r", func(th *Thread) { th.Recv(c, 0, 0) })
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	grants := map[string]int64{}
	for _, l := range rec.Profile().Locks {
		grants[l.Name] = l.Acquisitions
	}
	for _, name := range []string{"cs[r0]", "cs[r1]"} {
		a, ok := rec.Arbitration(name)
		if !ok || grants[name] == 0 || a.Grants != grants[name] {
			t.Fatalf("%s: %d acquisitions, %d grant samples (registered %v)",
				name, grants[name], a.Grants, ok)
		}
	}
}

func TestIprobeAndProbe(t *testing.T) {
	forEachVCI(t, func(t *testing.T, opt func(*Config)) {
		w := testWorld(t, 2, opt)
		c := w.Comm()
		w.Spawn(0, "s", func(th *Thread) {
			th.S.Sleep(5000)
			th.Send(c, 1, 7, 48, "probed")
			th.Send(c, 1, 3, 16, "second")
		})
		w.Spawn(1, "r", func(th *Thread) {
			if _, ok := th.Iprobe(c, 0, 7); ok {
				t.Error("Iprobe true before send")
			}
			if _, ok := th.Iprobe(c, AnySource, AnyTag); ok {
				t.Error("AnyTag Iprobe true before send")
			}
			st := th.Probe(c, 0, 7)
			if st.Source != 0 || st.Tag != 7 || st.Bytes != 48 {
				t.Errorf("status = %+v", st)
			}
			// A wildcard probe reports the earliest matching arrival.
			if st := th.Probe(c, AnySource, AnyTag); st.Tag != 7 || st.Bytes != 48 {
				t.Errorf("AnyTag status = %+v, want the tag-7 message", st)
			}
			// The message must still be receivable after probing.
			if got := th.Recv(c, 0, 7); got != "probed" {
				t.Errorf("got %v", got)
			}
			if st := th.Probe(c, 0, AnyTag); st.Tag != 3 || st.Bytes != 16 {
				t.Errorf("AnyTag status after receive = %+v, want the tag-3 message", st)
			}
			if got := th.Recv(c, 0, AnyTag); got != "second" {
				t.Errorf("AnyTag receive got %v", got)
			}
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestWaitany(t *testing.T) {
	forEachVCI(t, func(t *testing.T, opt func(*Config)) {
		w := testWorld(t, 2, opt)
		c := w.Comm()
		w.Spawn(0, "s", func(th *Thread) {
			th.S.Sleep(2000)
			th.Send(c, 1, 5, 8, "fast") // only tag 5 is ever sent
		})
		w.Spawn(1, "r", func(th *Thread) {
			var got interface{}
			slow := th.Irecv(c, 0, 9)
			fast := th.IrecvN(c, 0, 5, -1, &got)
			// Posted after fast, so the tag-5 message matches fast; the
			// wildcard stays unmatched (and, under a tag-hashed mapping,
			// unbound and cross-posted on every shard).
			wild := th.Irecv(c, 0, AnyTag)
			idx := th.Waitany([]*Request{slow, fast, wild})
			if idx != 1 {
				t.Errorf("Waitany picked %d", idx)
			}
			if got != "fast" {
				t.Errorf("payload %v", got)
			}
			th.CancelRecv(slow)
			th.CancelRecv(wild)
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if got := w.Proc(1).Outstanding(); got != 0 {
			t.Fatalf("outstanding after cancel: %d", got)
		}
	})
}

func TestWaitsome(t *testing.T) {
	forEachVCI(t, func(t *testing.T, opt func(*Config)) {
		w := testWorld(t, 2, opt)
		c := w.Comm()
		w.Spawn(0, "s", func(th *Thread) {
			for i := 0; i < 3; i++ {
				th.Send(c, 1, i, 8, i)
			}
		})
		w.Spawn(1, "r", func(th *Thread) {
			bufs := make([]interface{}, 3)
			rs := []*Request{th.IrecvN(c, 0, 0, -1, &bufs[0]), th.IrecvN(c, 0, 1, -1, &bufs[1]), th.IrecvN(c, 0, 2, -1, &bufs[2])}
			got := map[int]bool{}
			for len(got) < 3 {
				for _, i := range th.Waitsome(rs) {
					if got[i] {
						t.Errorf("Waitsome returned index %d twice", i)
					}
					got[i] = true
					if bufs[i] != i {
						t.Errorf("request %d got %v", i, bufs[i])
					}
				}
			}
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if w.DanglingNow() != 0 {
			t.Fatalf("dangling: %d", w.DanglingNow())
		}
	})
}

func TestAllgather(t *testing.T) {
	nodes := 5
	w := testWorld(t, nodes)
	c := w.Comm()
	for r := 0; r < nodes; r++ {
		r := r
		w.Spawn(r, "p", func(th *Thread) {
			vals := th.AllgatherInt64(c, int64(r*r))
			for i, v := range vals {
				if v != int64(i*i) {
					t.Errorf("rank %d: allgather[%d] = %d", r, i, v)
				}
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	nodes := 4
	w := testWorld(t, nodes)
	c := w.Comm()
	for r := 0; r < nodes; r++ {
		r := r
		w.Spawn(r, "p", func(th *Thread) {
			send := make([]interface{}, nodes)
			for i := range send {
				send[i] = r*100 + i // value destined for rank i
			}
			got := th.Alltoall(c, 8, send)
			for i, v := range got {
				if v != i*100+r {
					t.Errorf("rank %d: alltoall[%d] = %v, want %d", r, i, v, i*100+r)
				}
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReduceSum(t *testing.T) {
	nodes := 4
	w := testWorld(t, nodes)
	c := w.Comm()
	for r := 0; r < nodes; r++ {
		r := r
		w.Spawn(r, "p", func(th *Thread) {
			got := th.ReduceSum(c, 2, int64(r+1))
			if r == 2 && got != 10 {
				t.Errorf("root got %d", got)
			}
			if r != 2 && got != 0 {
				t.Errorf("non-root got %d", got)
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}
