// Package armci implements the Aggregate Remote Memory Copy Interface on
// top of the simulated MPI runtime's one-sided operations, mirroring
// ARMCI-MPI (paper §6.1.2, refs [10, 24]): the paper's Fig. 9 experiments
// drive this layer, not raw MPI_Put/Get. The subset implemented is the one
// those experiments (and NWChem-style Global Arrays usage) exercise:
// collective memory allocation, blocking and nonblocking contiguous
// put/get/accumulate, fences, and a barrier.
//
// armci is part of the deterministic core (docs/ARCHITECTURE.md).
package armci

import (
	"fmt"

	"mpicontend/internal/mpi"
)

// Runtime is an ARMCI instance over an MPI world: one exposure window of
// float64 elements per process.
type Runtime struct {
	w    *mpi.World
	comm *mpi.Comm
	win  *mpi.Win
	size int64
}

// Init creates the ARMCI runtime with elems float64 slots of remotely
// accessible memory per process (the ARMCI_Malloc step, collapsed to one
// collective allocation as ARMCI-MPI does with MPI_Win_allocate).
func Init(w *mpi.World, elems int64) *Runtime {
	return &Runtime{w: w, comm: w.Comm(), win: w.NewWin(elems), size: elems}
}

// Local returns rank's exposure buffer (the pointer ARMCI_Malloc would
// hand back).
func (rt *Runtime) Local(rank int) []float64 { return rt.win.Buffer(rank) }

// Handle tracks a nonblocking ARMCI operation. Its request is nil
// (MPI_REQUEST_NULL) once Wait, Test or Fence consumed it.
type Handle struct {
	req *mpi.Request
	// data is a get's receive slot: the fetched []float64 lands here.
	data interface{}
}

// check validates a transfer against the window bounds.
func (rt *Runtime) check(target int, offset, n int64) {
	if target < 0 || target >= rt.w.NumProcs() {
		panic(fmt.Sprintf("armci: target %d out of range", target))
	}
	if offset < 0 || offset+n > rt.size {
		panic(fmt.Sprintf("armci: transfer [%d,%d) exceeds window of %d elems",
			offset, offset+n, rt.size))
	}
}

// NbPut starts a nonblocking contiguous put of vals into target's window.
func (rt *Runtime) NbPut(th *mpi.Thread, target int, offset int64, vals []float64) *Handle {
	rt.check(target, offset, int64(len(vals)))
	return &Handle{req: th.Put(rt.win, target, offset, vals)}
}

// NbGet starts a nonblocking contiguous get of n elements from target.
func (rt *Runtime) NbGet(th *mpi.Thread, target int, offset, n int64) *Handle {
	rt.check(target, offset, n)
	h := &Handle{}
	h.req = th.Get(rt.win, target, offset, n, &h.data)
	return h
}

// NbAcc starts a nonblocking accumulate (MPI_SUM) of vals into target.
func (rt *Runtime) NbAcc(th *mpi.Thread, target int, offset int64, vals []float64) *Handle {
	rt.check(target, offset, int64(len(vals)))
	return &Handle{req: th.Accumulate(rt.win, target, offset, vals)}
}

// Wait completes a nonblocking operation. For gets it returns the fetched
// data; for puts/accumulates it returns nil.
func (rt *Runtime) Wait(th *mpi.Thread, h *Handle) []float64 {
	th.Wait(h.req) //simcheck:allow errdrop ARMCI_Wait returns void; errors surface through the fatal handler
	h.req = nil
	d, _ := h.data.([]float64)
	return d
}

// Test polls a nonblocking operation; like Wait it yields get data on
// completion.
func (rt *Runtime) Test(th *mpi.Thread, h *Handle) ([]float64, bool) {
	done, _ := th.Test(h.req) //simcheck:allow errdrop ARMCI_Test returns only a flag; errors surface through the fatal handler
	if !done {
		return nil, false
	}
	h.req = nil
	d, _ := h.data.([]float64)
	return d, true
}

// Put is the blocking contiguous put: it returns once the transfer is
// complete at the target (ARMCI's location-consistent put followed by the
// implicit fence the Fig. 9 benchmark relies on).
func (rt *Runtime) Put(th *mpi.Thread, target int, offset int64, vals []float64) {
	rt.Wait(th, rt.NbPut(th, target, offset, vals))
}

// Get is the blocking contiguous get.
func (rt *Runtime) Get(th *mpi.Thread, target int, offset, n int64) []float64 {
	return rt.Wait(th, rt.NbGet(th, target, offset, n))
}

// Fence completes all outstanding operations this process issued to the
// target. With the blocking API above, operations complete eagerly; Fence
// exists for the nonblocking path: pass the handles still in flight.
func (rt *Runtime) Fence(th *mpi.Thread, hs []*Handle) {
	rs := make([]*mpi.Request, 0, len(hs))
	for _, h := range hs {
		if h != nil && h.req != nil {
			rs = append(rs, h.req)
			h.req = nil
		}
	}
	th.Flush(rt.win, rs)
}

// Barrier synchronizes all processes (ARMCI_Barrier). One thread per
// process must call it.
func (rt *Runtime) Barrier(th *mpi.Thread) { th.Barrier(rt.comm) }
