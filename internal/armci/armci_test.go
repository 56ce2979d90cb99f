package armci

import (
	"testing"

	"mpicontend/internal/machine"
	"mpicontend/internal/mpi"
	"mpicontend/internal/simlock"
)

func testWorld(t *testing.T) *mpi.World {
	t.Helper()
	w, err := mpi.NewWorld(mpi.Config{
		Topo:         machine.Nehalem2x4(2),
		Lock:         simlock.KindTicket,
		ProcsPerNode: 2,
		Seed:         71,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBlockingPutGet(t *testing.T) {
	w := testWorld(t)
	rt := Init(w, 64)
	for r := 1; r < 4; r++ {
		w.SpawnAsyncProgress(r)
	}
	w.Spawn(0, "client", func(th *mpi.Thread) {
		vals := []float64{1.5, 2.5, 3.5}
		rt.Put(th, 2, 10, vals)
		got := rt.Get(th, 2, 10, 3)
		for i, v := range vals {
			if got[i] != v {
				t.Errorf("get[%d] = %v, want %v", i, got[i], v)
			}
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Local(2)[10] != 1.5 {
		t.Fatal("put not visible in target window")
	}
}

func TestAccumulate(t *testing.T) {
	w := testWorld(t)
	rt := Init(w, 8)
	w.SpawnAsyncProgress(3)
	w.Spawn(0, "client", func(th *mpi.Thread) {
		for i := 0; i < 4; i++ {
			rt.Wait(th, rt.NbAcc(th, 3, 0, []float64{2, 5}))
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Local(3)[0] != 8 || rt.Local(3)[1] != 20 {
		t.Fatalf("acc result %v %v", rt.Local(3)[0], rt.Local(3)[1])
	}
}

func TestNonblockingFence(t *testing.T) {
	w := testWorld(t)
	rt := Init(w, 32)
	for r := 1; r < 4; r++ {
		w.SpawnAsyncProgress(r)
	}
	w.Spawn(0, "client", func(th *mpi.Thread) {
		var hs []*Handle
		for tgt := 1; tgt < 4; tgt++ {
			hs = append(hs, rt.NbPut(th, tgt, 0, []float64{float64(tgt)}))
		}
		// A handle Wait already consumed: Fence must skip it, since its
		// recycled request now serves the next operation.
		waited := rt.NbPut(th, 1, 1, []float64{7})
		rt.Wait(th, waited)
		later := rt.NbPut(th, 2, 1, []float64{8})
		rt.Fence(th, append(hs, waited))
		rt.Wait(th, later)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for tgt := 1; tgt < 4; tgt++ {
		if rt.Local(tgt)[0] != float64(tgt) {
			t.Fatalf("target %d window = %v", tgt, rt.Local(tgt)[0])
		}
	}
}

func TestNbGetViaTest(t *testing.T) {
	w := testWorld(t)
	rt := Init(w, 8)
	rt.Local(1)[3] = 42
	w.SpawnAsyncProgress(1)
	w.Spawn(0, "client", func(th *mpi.Thread) {
		h := rt.NbGet(th, 1, 3, 1)
		for {
			if d, ok := rt.Test(th, h); ok {
				if d[0] != 42 {
					t.Errorf("got %v", d[0])
				}
				return
			}
			th.S.Sleep(200)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	w := testWorld(t)
	rt := Init(w, 4)
	order := make([]int64, 4)
	for r := 0; r < 4; r++ {
		r := r
		w.Spawn(r, "p", func(th *mpi.Thread) {
			th.S.Sleep(int64(r) * 10_000)
			rt.Barrier(th)
			order[r] = th.S.Now()
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if order[r] < 30_000 {
			t.Fatalf("rank %d left barrier at %d, before last arrival", r, order[r])
		}
	}
}

func TestBoundsChecked(t *testing.T) {
	w := testWorld(t)
	rt := Init(w, 8)
	w.Spawn(0, "client", func(th *mpi.Thread) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-bounds put not rejected")
			}
		}()
		rt.Put(th, 1, 6, []float64{1, 2, 3})
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}
