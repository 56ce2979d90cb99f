package mpi

import (
	"testing"
	"testing/quick"

	"mpicontend/internal/machine"
	"mpicontend/internal/sim"
	"mpicontend/internal/simlock"
)

// TestMatchingSemanticsProperty runs randomized message storms against the
// runtime and checks MPI matching invariants:
//
//  1. every send is received exactly once (bijection);
//  2. every receive's (source, tag) specification matches its message;
//  3. per (source, tag) channel, exact receives observe messages in the
//     order they were sent (non-overtaking).
func TestMatchingSemanticsProperty(t *testing.T) {
	type msg struct {
		src, tag, seq int
	}
	run := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		nSenders := 1 + rng.Intn(3)
		tags := 1 + rng.Intn(3)
		perSender := 4 + rng.Intn(8)

		w, err := NewWorld(Config{
			Topo: machine.Nehalem2x4(nSenders + 1),
			Lock: simlock.KindMutex,
			Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := w.Comm()
		recvRank := nSenders

		// Plan sends: per sender, perSender messages with random tags,
		// carrying (src, tag, per-channel sequence number).
		seqs := map[[2]int]int{}
		plans := make([][]msg, nSenders)
		totalPerTagSrc := map[[2]int]int{}
		for s := 0; s < nSenders; s++ {
			for i := 0; i < perSender; i++ {
				tag := rng.Intn(tags)
				key := [2]int{s, tag}
				plans[s] = append(plans[s], msg{src: s, tag: tag, seq: seqs[key]})
				seqs[key]++
				totalPerTagSrc[key]++
			}
		}
		// Plan receives. Mixing wildcards with exact specs is not
		// matching-feasible in general (a wildcard can steal a channel's
		// message and deadlock the exact receive — a legal MPI program
		// error), so each run is either all-exact or all-wildcard.
		type spec struct{ src, tag int }
		var specs []spec
		exactMode := rng.Intn(2) == 0
		for key, n := range totalPerTagSrc {
			for i := 0; i < n; i++ {
				if exactMode {
					specs = append(specs, spec{src: key[0], tag: key[1]})
				} else {
					specs = append(specs, spec{src: AnySource, tag: AnyTag})
				}
			}
		}
		// Shuffle receive posting order.
		for i := len(specs) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			specs[i], specs[j] = specs[j], specs[i]
		}

		for s := 0; s < nSenders; s++ {
			s := s
			w.Spawn(s, "sender", func(th *Thread) {
				for _, m := range plans[s] {
					th.S.Sleep(int64(rng.Intn(2000)))
					th.Send(c, recvRank, m.tag, 16, m)
				}
			})
		}
		var got []struct {
			spec spec
			m    msg
		}
		w.Spawn(recvRank, "receiver", func(th *Thread) {
			var rs []*Request
			var ss []spec
			bufs := make([]interface{}, len(specs))
			for i, sp := range specs {
				th.S.Sleep(int64(rng.Intn(500)))
				rs = append(rs, th.IrecvN(c, sp.src, sp.tag, -1, &bufs[i]))
				ss = append(ss, sp)
			}
			th.Waitall(rs)
			for i := range rs {
				got = append(got, struct {
					spec spec
					m    msg
				}{ss[i], bufs[i].(msg)})
			}
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}

		// Invariant 1: bijection.
		seen := map[msg]int{}
		for _, g := range got {
			seen[g.m]++
		}
		total := 0
		for s := 0; s < nSenders; s++ {
			for _, m := range plans[s] {
				if seen[m] != 1 {
					t.Logf("seed %d: message %+v received %d times", seed, m, seen[m])
					return false
				}
				total++
			}
		}
		if len(got) != total {
			return false
		}
		// Invariant 2: spec compatibility.
		for _, g := range got {
			if g.spec.src != AnySource && g.spec.src != g.m.src {
				return false
			}
			if g.spec.tag != AnyTag && g.spec.tag != g.m.tag {
				return false
			}
		}
		// Invariant 3: per-channel FIFO for exact receives. Walk receives
		// in posting order; per (src,tag) exact channel, sequence numbers
		// must increase.
		lastSeq := map[[2]int]int{}
		for _, g := range got {
			if g.spec.src == AnySource || g.spec.tag == AnyTag {
				continue
			}
			key := [2]int{g.m.src, g.m.tag}
			if prev, ok := lastSeq[key]; ok && g.m.seq < prev {
				t.Logf("seed %d: channel %v out of order: %d after %d",
					seed, key, g.m.seq, prev)
				return false
			}
			lastSeq[key] = g.m.seq
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if err := quick.Check(func(seed uint64) bool { return run(seed%1000 + 1) }, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedChannelDisjoint checks that partitioned traffic occupies
// its own matching space: a partitioned epoch on (comm, tag, src) must not
// match regular receives posted on the same channel, and regular eager and
// rendezvous sends on that channel must not match a posted Precv.
func TestPartitionedChannelDisjoint(t *testing.T) {
	w := testWorld(t, 2)
	c := w.Comm()
	const tag = 5
	const parts = 4
	big := w.Cfg.Cost.EagerThreshold * 4
	var eagerGot, rndvGot, partGot interface{}
	w.Spawn(0, "sender", func(th *Thread) {
		// The partitioned epoch fires first: if the channels leaked, the
		// already-posted regular receives would capture the aggregate.
		ps := th.PsendInit(c, 1, tag, parts, 64, "partitioned")
		th.Pstart(ps)
		if err := th.preadyRange(ps, 0, parts); err != nil {
			t.Errorf("preadyRange: %v", err)
		}
		if err := th.Pwait(ps); err != nil {
			t.Errorf("Pwait: %v", err)
		}
		th.Send(c, 1, tag, 64, "eager")
		th.Send(c, 1, tag, big, "rendezvous")
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		// Regular receives post before the aggregate can land...
		r1 := th.IrecvN(c, 0, tag, -1, &eagerGot)
		r2 := th.IrecvN(c, 0, tag, -1, &rndvGot)
		// ...and the Precv starts only after both regular sends are
		// underway: neither may capture the other's traffic.
		pr := th.PrecvInit(c, 0, tag, parts, 64)
		th.Pstart(pr)
		th.Waitall([]*Request{r1, r2})
		if err := th.Pwait(pr); err != nil {
			t.Errorf("Pwait(recv): %v", err)
		}
		partGot = pr.Data()
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if eagerGot != "eager" || rndvGot != "rendezvous" {
		t.Fatalf("regular channel polluted: eager=%v rendezvous=%v", eagerGot, rndvGot)
	}
	if partGot != "partitioned" {
		t.Fatalf("partitioned channel polluted: %v", partGot)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedErrorCodes pins the documented error codes on the
// partitioned usage contract: Pready/Parrived/Pwait on an inactive request
// return ErrPartInactive, and re-readying a partition returns
// ErrPartDoubleReady, both through the ErrorsReturn handler.
func TestPartitionedErrorCodes(t *testing.T) {
	w := testWorld(t, 2)
	w.SetErrhandler(ErrorsReturn)
	c := w.Comm()
	const parts = 3
	wantCode := func(err error, code Errcode, what string) {
		t.Helper()
		me, ok := err.(*Error)
		if !ok || me.Code != code {
			t.Errorf("%s returned %v, want %v", what, err, code)
		}
	}
	w.Spawn(0, "sender", func(th *Thread) {
		ps := th.PsendInit(c, 1, 2, parts, 64, "codes")
		wantCode(th.Pready(ps, 0), ErrPartInactive, "Pready before Pstart")
		wantCode(th.Pwait(ps), ErrPartInactive, "Pwait before Pstart")
		th.Pstart(ps)
		if err := th.Pready(ps, 0); err != nil {
			t.Errorf("first Pready: %v", err)
		}
		wantCode(th.Pready(ps, 0), ErrPartDoubleReady, "second Pready")
		wantCode(th.preadyRange(ps, 0, parts), ErrPartDoubleReady, "overlapping preadyRange")
		if err := th.preadyRange(ps, 1, parts); err != nil {
			t.Errorf("completing preadyRange: %v", err)
		}
		if err := th.Pwait(ps); err != nil {
			t.Errorf("Pwait: %v", err)
		}
	})
	w.Spawn(1, "receiver", func(th *Thread) {
		pr := th.PrecvInit(c, 0, 2, parts, 64)
		if _, err := th.Parrived(pr, 0); err == nil {
			t.Error("Parrived before Pstart succeeded")
		} else {
			wantCode(err, ErrPartInactive, "Parrived before Pstart")
		}
		th.Pstart(pr)
		for done := false; !done; {
			arrived, err := th.Parrived(pr, parts-1)
			if err != nil {
				t.Errorf("Parrived: %v", err)
				break
			}
			done = arrived
			th.S.Sleep(500)
		}
		if err := th.Pwait(pr); err != nil {
			t.Errorf("Pwait(recv): %v", err)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckClean(); err != nil {
		t.Fatal(err)
	}
}
