package mpi

import "testing"

func TestCommDupSeparatesMatching(t *testing.T) {
	w := testWorld(t, 2)
	c := w.Comm()
	dup := w.SetupComm()
	var fromDup, fromWorld interface{}
	w.Spawn(0, "s", func(th *Thread) {
		// Same (dst, tag) on both communicators; contexts must separate.
		th.Send(dup, 1, 3, 8, "dup")
		th.Send(c, 1, 3, 8, "world")
	})
	w.Spawn(1, "r", func(th *Thread) {
		fromWorld = th.Recv(c, 0, 3)
		fromDup = th.Recv(dup, 0, 3)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if fromDup != "dup" || fromWorld != "world" {
		t.Fatalf("cross-communicator leak: dup=%v world=%v", fromDup, fromWorld)
	}
}

func TestCommSplitGroups(t *testing.T) {
	nodes := 6
	w := testWorld(t, nodes)
	c := w.Comm()
	results := make([]struct {
		size, rank int
		sum        int64
	}, nodes)
	for r := 0; r < nodes; r++ {
		r := r
		w.Spawn(r, "p", func(th *Thread) {
			sub := th.Split(c, r%2, r) // evens and odds
			results[r].size = sub.Size()
			results[r].rank = sub.Rank(th)
			results[r].sum = th.AllreduceSum(sub, int64(r))
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nodes; r++ {
		if results[r].size != 3 {
			t.Fatalf("rank %d sub size %d", r, results[r].size)
		}
		wantRank := r / 2 // ordered by key=r within each parity class
		if results[r].rank != wantRank {
			t.Fatalf("rank %d sub rank %d, want %d", r, results[r].rank, wantRank)
		}
		wantSum := int64(0 + 2 + 4)
		if r%2 == 1 {
			wantSum = 1 + 3 + 5
		}
		if results[r].sum != wantSum {
			t.Fatalf("rank %d allreduce %d, want %d", r, results[r].sum, wantSum)
		}
	}
}

func TestCommSplitKeyOrdering(t *testing.T) {
	nodes := 4
	w := testWorld(t, nodes)
	c := w.Comm()
	ranks := make([]int, nodes)
	for r := 0; r < nodes; r++ {
		r := r
		w.Spawn(r, "p", func(th *Thread) {
			// Reverse key order: world rank 3 becomes sub rank 0.
			sub := th.Split(c, 0, nodes-r)
			ranks[r] = sub.Rank(th)
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nodes; r++ {
		if ranks[r] != nodes-1-r {
			t.Fatalf("world %d got sub rank %d", r, ranks[r])
		}
	}
}

func TestCommSplitUndefined(t *testing.T) {
	nodes := 3
	w := testWorld(t, nodes)
	c := w.Comm()
	var excluded *Comm = &Comm{} // sentinel, replaced below
	for r := 0; r < nodes; r++ {
		r := r
		w.Spawn(r, "p", func(th *Thread) {
			color := 0
			if r == 2 {
				color = -1 // MPI_UNDEFINED
			}
			sub := th.Split(c, color, r)
			if r == 2 {
				excluded = sub
			} else if sub.Size() != 2 {
				t.Errorf("rank %d sub size %d", r, sub.Size())
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if excluded != nil {
		t.Fatal("undefined color should yield nil communicator")
	}
}

func TestCommP2PLocalRanks(t *testing.T) {
	// Point-to-point within a sub-communicator addresses local ranks.
	nodes := 4
	w := testWorld(t, nodes)
	c := w.Comm()
	var got interface{}
	for r := 0; r < nodes; r++ {
		r := r
		w.Spawn(r, "p", func(th *Thread) {
			sub := th.Split(c, r%2, r)
			if r%2 == 0 {
				if sub.Rank(th) == 0 {
					th.Send(sub, 1, 0, 8, "evens") // local rank 1 = world 2
				} else {
					got = th.Recv(sub, 0, 0)
				}
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "evens" {
		t.Fatalf("got %v", got)
	}
}

func TestCommDupCollectives(t *testing.T) {
	nodes := 3
	w := testWorld(t, nodes)
	c := w.Comm()
	for r := 0; r < nodes; r++ {
		r := r
		w.Spawn(r, "p", func(th *Thread) {
			sub := th.Split(c, 0, r)
			if got := th.AllreduceSum(sub, 1); got != int64(nodes) {
				t.Errorf("rank %d: allreduce on split comm = %d", r, got)
			}
			th.Barrier(sub)
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}
