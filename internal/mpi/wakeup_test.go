package mpi

import (
	"testing"

	"mpicontend/internal/machine"
	"mpicontend/internal/simlock"
)

// wakeMode is the progress mode with selective wake-up on or off.
func wakeMode(wake bool) ProgressMode {
	if wake {
		return ProgressSelective
	}
	return ProgressPolling
}

func wakeupWorld(t *testing.T, k simlock.Kind, wake bool) *World {
	t.Helper()
	w, err := NewWorld(Config{
		Topo:     machine.Nehalem2x4(2),
		Lock:     k,
		Seed:     555,
		Progress: wakeMode(wake),
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSelectiveProgressCorrectness: the event-driven mode must complete the
// same exchanges as busy polling, for every lock.
func TestSelectiveProgressCorrectness(t *testing.T) {
	for _, k := range []simlock.Kind{simlock.KindMutex, simlock.KindTicket, simlock.KindPriority} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			w := wakeupWorld(t, k, true)
			c := w.Comm()
			for i := 0; i < 4; i++ {
				w.Spawn(0, "s", func(th *Thread) {
					var rs []*Request
					for j := 0; j < 32; j++ {
						rs = append(rs, th.Isend(c, 1, 0, 8, j))
					}
					th.Waitall(rs)
				})
				w.Spawn(1, "r", func(th *Thread) {
					var rs []*Request
					for j := 0; j < 32; j++ {
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

// TestSelectiveProgressRendezvous exercises the large-message protocol with
// parked waiters (the CTS/RData chain must wake them).
func TestSelectiveProgressRendezvous(t *testing.T) {
	w := wakeupWorld(t, simlock.KindMutex, true)
	c := w.Comm()
	big := w.Cfg.Cost.EagerThreshold * 3
	var got interface{}
	w.Spawn(0, "s", func(th *Thread) { th.Send(c, 1, 0, big, "bulk") })
	w.Spawn(1, "r", func(th *Thread) { got = th.Recv(c, 0, 0) })
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "bulk" {
		t.Fatalf("got %v", got)
	}
}

// TestSelectiveProgressReducesPolls: event-driven progress must issue far
// fewer empty polls than busy spinning in a latency-bound exchange.
func TestSelectiveProgressReducesPolls(t *testing.T) {
	polls := func(wake bool) int64 {
		w := wakeupWorld(t, simlock.KindTicket, wake)
		c := w.Comm()
		w.Spawn(0, "ping", func(th *Thread) {
			for i := 0; i < 20; i++ {
				th.Send(c, 1, 0, 8, nil)
				th.Recv(c, 1, 1)
			}
		})
		w.Spawn(1, "pong", func(th *Thread) {
			for i := 0; i < 20; i++ {
				th.Recv(c, 0, 0)
				th.Send(c, 0, 1, 8, nil)
			}
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return w.Proc(0).Polls + w.Proc(1).Polls
	}
	busy, evt := polls(false), polls(true)
	t.Logf("polls: busy=%d event-driven=%d", busy, evt)
	if evt >= busy {
		t.Errorf("selective wakeup should cut polls: %d vs %d", evt, busy)
	}
}

// TestSelectiveProgressHelpsMutexRMA: parking the pollers removes the mutex
// monopolization by the async progress thread (§9's motivation).
func TestSelectiveProgressHelpsMutexRMA(t *testing.T) {
	run := func(wake bool) int64 {
		w, err := NewWorld(Config{
			Topo: machine.Nehalem2x4(2), Lock: simlock.KindMutex,
			ProcsPerNode: 4, Seed: 99, Progress: wakeMode(wake),
		})
		if err != nil {
			t.Fatal(err)
		}
		win := w.NewWin(16)
		for r := 0; r < 8; r++ {
			w.SpawnAsyncProgress(r)
		}
		var end int64
		w.Spawn(0, "origin", func(th *Thread) {
			vals := []float64{1, 2}
			for i := 0; i < 20; i++ {
				th.S.Sleep(300)
				r := th.Put(win, 1+(i%7), 0, vals)
				th.Flush(win, []*Request{r})
			}
			end = th.S.Now()
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	busy, evt := run(false), run(true)
	t.Logf("RMA 20 puts under mutex: busy=%dus event-driven=%dus", busy/1000, evt/1000)
	if evt >= busy {
		t.Errorf("selective wakeup should speed up the mutex RMA case: %d vs %d", evt, busy)
	}
}
