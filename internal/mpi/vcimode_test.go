package mpi

import (
	"fmt"
	"testing"

	"mpicontend/internal/fabric"
	"mpicontend/internal/fault"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/sim"
)

// withVCIs is a testWorld option enabling the sharded runtime.
func withVCIs(n int, pol vci.Policy) func(*Config) {
	return func(c *Config) {
		c.VCIs = n
		c.VCIPolicy = pol
	}
}

// TestVCIPerCommMapping: under the per-comm policy every operation of one
// communicator lands on one shard regardless of tag, the shard the policy
// function names; a second communicator (different context) maps
// independently. The receive side must agree with the send side, or
// matching would silently fall apart.
func TestVCIPerCommMapping(t *testing.T) {
	const n = 4
	w := testWorld(t, 2, withVCIs(n, vci.PerComm))
	c := w.Comm()
	d := w.SetupComm()
	tags := []int{0, 1, 7, 19, 31}
	vcis := map[string]int{}
	w.Spawn(0, "sender", func(th *Thread) {
		var rs []*Request
		for _, tag := range tags {
			for _, cm := range []*Comm{c, d} {
				r := th.Isend(cm, 1, tag, 64, tag)
				vcis[fmt.Sprintf("send ctx=%d tag=%d", cm.ctx, tag)] = r.vci
				rs = append(rs, r)
			}
		}
		if err := th.Waitall(rs); err != nil {
			t.Errorf("waitall: %v", err)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		var rs []*Request
		for _, tag := range tags {
			for _, cm := range []*Comm{c, d} {
				r := th.Irecv(cm, 0, tag)
				vcis[fmt.Sprintf("recv ctx=%d tag=%d", cm.ctx, tag)] = r.vci
				rs = append(rs, r)
			}
		}
		if err := th.Waitall(rs); err != nil {
			t.Errorf("waitall: %v", err)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for _, cm := range []*Comm{c, d} {
		want := vci.Select(vci.PerComm, cm.ctx, 0, vci.NoHint, n)
		for _, tag := range tags {
			for _, side := range []string{"send", "recv"} {
				key := fmt.Sprintf("%s ctx=%d tag=%d", side, cm.ctx, tag)
				if got := vcis[key]; got != want {
					t.Errorf("%s: shard %d, want %d", key, got, want)
				}
			}
		}
	}
	if w.DanglingNow() != 0 {
		t.Fatalf("dangling requests leaked: %d", w.DanglingNow())
	}
}

// TestVCIPerTagHashMapping: the per-tag-hash policy spreads one
// communicator's tags across shards (the figure-level decontention
// mechanism), with the send and receive sides computing the same mapping.
func TestVCIPerTagHashMapping(t *testing.T) {
	const n, tags = 16, 32
	w := testWorld(t, 2, withVCIs(n, vci.PerTagHash))
	c := w.Comm()
	sendVCI := make([]int, tags)
	recvVCI := make([]int, tags)
	w.Spawn(0, "sender", func(th *Thread) {
		var rs []*Request
		for tag := 0; tag < tags; tag++ {
			r := th.Isend(c, 1, tag, 64, tag)
			sendVCI[tag] = r.vci
			rs = append(rs, r)
		}
		if err := th.Waitall(rs); err != nil {
			t.Errorf("waitall: %v", err)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		var rs []*Request
		for tag := 0; tag < tags; tag++ {
			r := th.Irecv(c, 0, tag)
			recvVCI[tag] = r.vci
			rs = append(rs, r)
		}
		if err := th.Waitall(rs); err != nil {
			t.Errorf("waitall: %v", err)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for tag := 0; tag < tags; tag++ {
		want := vci.Select(vci.PerTagHash, c.ctx, tag, vci.NoHint, n)
		if sendVCI[tag] != want || recvVCI[tag] != want {
			t.Errorf("tag %d: send shard %d, recv shard %d, want %d",
				tag, sendVCI[tag], recvVCI[tag], want)
		}
		seen[sendVCI[tag]] = true
	}
	if len(seen) < 8 {
		t.Errorf("%d tags landed on only %d/%d shards", tags, len(seen), n)
	}
}

// TestVCIExplicitMapping: explicitly placed communicators (setup-time dup
// + SetVCI) pin their traffic to the named shard — the collision-free
// per-thread pattern the VCI literature recommends — while unpinned comms
// fall back to the per-comm hash.
func TestVCIExplicitMapping(t *testing.T) {
	const n = 4
	w := testWorld(t, 2, withVCIs(n, vci.Explicit))
	comms := make([]*Comm, n)
	for k := range comms {
		comms[k] = w.SetupComm().SetVCI(k)
	}
	plain := w.Comm()
	got := make([]interface{}, n)
	vcis := make([]int, n)
	var plainVCI int
	w.Spawn(0, "sender", func(th *Thread) {
		var rs []*Request
		for k, cm := range comms {
			r := th.Isend(cm, 1, 5, 64, 100+k)
			vcis[k] = r.vci
			rs = append(rs, r)
		}
		r := th.Isend(plain, 1, 5, 64, "unpinned")
		plainVCI = r.vci
		rs = append(rs, r)
		if err := th.Waitall(rs); err != nil {
			t.Errorf("waitall: %v", err)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		for k, cm := range comms {
			got[k] = th.Recv(cm, 0, 5)
		}
		th.Recv(plain, 0, 5)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for k := range comms {
		if vcis[k] != k {
			t.Errorf("comm pinned to VCI %d posted on shard %d", k, vcis[k])
		}
		if got[k] != 100+k {
			t.Errorf("comm %d delivered %v, want %d", k, got[k], 100+k)
		}
	}
	if want := vci.Select(vci.Explicit, plain.ctx, 5, vci.NoHint, n); plainVCI != want {
		t.Errorf("unpinned comm posted on shard %d, want per-comm fallback %d",
			plainVCI, want)
	}
}

// TestVCIWildcardRecvAcrossShards: under the tag-hashed mapping an AnyTag
// receive cannot name one shard; the cross-VCI wildcard path must still
// deliver every message exactly once, in arrival order, regardless of
// which shard the sender's tag hashed to.
func TestVCIWildcardRecvAcrossShards(t *testing.T) {
	const n, msgs = 8, 12
	w := testWorld(t, 2, withVCIs(n, vci.PerTagHash))
	c := w.Comm()
	var order []interface{}
	w.Spawn(0, "sender", func(th *Thread) {
		for i := 0; i < msgs; i++ {
			// Spaced sends: arrival order is the send order, so the
			// wildcard's earliest-arrival scan has one right answer.
			th.Send(c, 1, i*3, 64, i)
			th.S.Sleep(50_000)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		for i := 0; i < msgs; i++ {
			order = append(order, th.Recv(c, 0, AnyTag))
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wildcard recv order broken: got %v", order)
		}
	}
	if w.DanglingNow() != 0 {
		t.Fatalf("dangling requests leaked: %d", w.DanglingNow())
	}
}

// TestVCIOrderingWithinShard: MPI non-overtaking order holds per
// (comm, src, tag) — which the sharded runtime maps entirely inside one
// VCI — even with many back-to-back sends in flight, and independently on
// each explicitly placed communicator.
func TestVCIOrderingWithinShard(t *testing.T) {
	const n, msgs = 4, 40
	w := testWorld(t, 2, withVCIs(n, vci.Explicit))
	a := w.SetupComm().SetVCI(1)
	b := w.SetupComm().SetVCI(3)
	var gotA, gotB []interface{}
	w.Spawn(0, "sender", func(th *Thread) {
		var rs []*Request
		for i := 0; i < msgs; i++ {
			// Interleave the two streams so cross-shard progress cannot
			// substitute for in-shard FIFO order.
			rs = append(rs, th.Isend(a, 1, 7, 64, i))
			rs = append(rs, th.Isend(b, 1, 7, 64, msgs+i))
		}
		if err := th.Waitall(rs); err != nil {
			t.Errorf("waitall: %v", err)
		}
	})
	w.Spawn(1, "recvA", func(th *Thread) {
		for i := 0; i < msgs; i++ {
			gotA = append(gotA, th.Recv(a, 0, 7))
		}
	})
	w.Spawn(1, "recvB", func(th *Thread) {
		for i := 0; i < msgs; i++ {
			gotB = append(gotB, th.Recv(b, 0, 7))
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		if gotA[i] != i {
			t.Fatalf("stream A overtaken at %d: %v", i, gotA[:i+1])
		}
		if gotB[i] != msgs+i {
			t.Fatalf("stream B overtaken at %d: %v", i, gotB[:i+1])
		}
	}
}

// TestVCICrashBlackholesAllShards: the rank-failure regression for the
// sharded runtime. A crashed rank's traffic spans several VCIs (one
// explicitly placed comm per stream); the fault plane must blackhole the
// rank as a whole — every shard's stream fails with ErrProcFailed after
// heartbeat detection, none hangs — and ULFM revoke/shrink still recovers
// the survivors.
func TestVCICrashBlackholesAllShards(t *testing.T) {
	const n = 4
	w := testWorld(t, 3, withVCIs(n, vci.Explicit),
		func(c *Config) { c.Fault = fault.Config{Crashes: []fault.CrashSpec{{Rank: 2, AtNs: 100_000}}} })
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	comms := make([]*Comm, n)
	for k := range comms {
		comms[k] = w.SetupComm().SetVCI(k)
	}
	streamErr := make([]error, n)
	streamVCI := make([]int, n)
	for k := range comms {
		k := k
		w.Spawn(0, "stream", func(th *Thread) {
			for i := 0; ; i++ {
				r := th.Isend(comms[k], 2, 7, 64, i)
				streamVCI[k] = r.vci
				if err := th.Wait(r); err != nil {
					streamErr[k] = err
					return
				}
				th.S.Sleep(20_000)
			}
		})
	}
	w.Spawn(2, "victim", func(th *Thread) {
		for {
			th.Recv(comms[0], 0, 7)
		}
	})
	newSize := map[int]int{}
	sums := map[int]int64{}
	for _, rank := range []int{0, 1} {
		rank := rank
		w.Spawn(rank, "recover", func(th *Thread) {
			waitForFailure(th, c)
			th.Revoke(c)
			sh, err := th.Shrink(c)
			if err != nil {
				t.Errorf("rank %d shrink: %v", rank, err)
				return
			}
			newSize[rank] = sh.Size()
			sum, err := th.AllreduceSumErr(sh, int64(rank))
			if err != nil {
				t.Errorf("rank %d allreduce on shrunk comm: %v", rank, err)
				return
			}
			sums[rank] = sum
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for k := range comms {
		errCode(t, streamErr[k], ErrProcFailed)
		if streamVCI[k] != k {
			t.Errorf("stream %d ran on shard %d", k, streamVCI[k])
		}
	}
	rec := w.Recovery()
	if len(rec.Crashed) != 1 || rec.Crashed[0] != 2 {
		t.Fatalf("crashed ranks: %v", rec.Crashed)
	}
	if rec.DetectNs <= 0 || rec.DetectNs > 600_000 {
		t.Fatalf("detection latency out of bounds: %d", rec.DetectNs)
	}
	for _, rank := range []int{0, 1} {
		if newSize[rank] != 2 {
			t.Errorf("rank %d: shrunk size %d, want 2", rank, newSize[rank])
		}
		if sums[rank] != 0+1 {
			t.Errorf("rank %d: allreduce sum %d, want 1", rank, sums[rank])
		}
	}
}

// TestPartitionedWildcardVCIDeterministic: an AnySource Precv in the
// sharded runtime adopts whichever matching epoch lands first, and that
// choice must be a pure function of the simulation seed — two identical
// runs bind wildcard receives to senders in exactly the same order.
func TestPartitionedWildcardVCIDeterministic(t *testing.T) {
	run := func() []interface{} {
		w := testWorld(t, 3, withVCIs(4, vci.PerTagHash))
		c := w.Comm()
		const parts = 4
		const tag = 6
		for src := 0; src < 2; src++ {
			src := src
			w.Spawn(src, "sender", func(th *Thread) {
				ps := th.PsendInit(c, 2, tag, parts, 64, fmt.Sprintf("from-%d", src))
				th.Pstart(ps)
				if err := th.PreadyRange(ps, 0, parts); err != nil {
					t.Errorf("sender %d: %v", src, err)
				}
				if err := th.Pwait(ps); err != nil {
					t.Errorf("sender %d Pwait: %v", src, err)
				}
			})
		}
		var got []interface{}
		w.Spawn(2, "receiver", func(th *Thread) {
			for i := 0; i < 2; i++ {
				pr := th.PrecvInit(c, AnySource, tag, parts, 64)
				th.Pstart(pr)
				if err := th.Pwait(pr); err != nil {
					t.Errorf("recv %d Pwait: %v", i, err)
				}
				got = append(got, pr.Data())
			}
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if err := w.CheckClean(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	first, second := run(), run()
	if len(first) != 2 || len(second) != 2 {
		t.Fatalf("runs delivered %d/%d epochs, want 2 each", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("wildcard binding diverged between identical runs: %v vs %v", first, second)
		}
	}
}

// TestPktQueueFIFO: the completion queue drains in exactly arrival order
// under any interleaving of pushes and pops, and a queue that never
// empties — the busy-shard case, where rewinding on empty never fires —
// keeps its backing array bounded instead of growing with total traffic.
func TestPktQueueFIFO(t *testing.T) {
	var q pktQueue
	var want []*fabric.Packet
	pkts := make([]fabric.Packet, 5000)
	r := sim.NewRand(5)
	next := 0
	for next < len(pkts) || q.len() > 0 {
		if next < len(pkts) && (q.len() == 0 || r.Int63n(3) > 0) {
			q.push(&pkts[next])
			want = append(want, &pkts[next])
			next++
		} else {
			if got := q.pop(); got != want[0] {
				t.Fatalf("popped packet %p, want %p (after %d pushes)", got, want[0], next)
			}
			want = want[1:]
		}
		if q.len() != len(want) {
			t.Fatalf("len %d, want %d", q.len(), len(want))
		}
	}

	// Steady state: occupancy oscillates between 1 and 8, never 0.
	q = pktQueue{}
	q.push(&pkts[0])
	for i := 0; i < 10000; i++ {
		for j := 0; j < 7; j++ {
			q.push(&pkts[j])
		}
		for j := 0; j < 7; j++ {
			q.pop()
		}
	}
	if c := cap(q.buf); c > 32 {
		t.Fatalf("never-empty queue of at most 8 grew its array to %d", c)
	}
}
