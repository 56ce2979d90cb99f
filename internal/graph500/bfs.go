package graph500

import (
	"fmt"

	"mpicontend/internal/fault"
	"mpicontend/internal/machine"
	"mpicontend/internal/mpi"
	"mpicontend/internal/sim"
	"mpicontend/internal/simlock"
)

// Fixed costs of the BFS model.
const (
	perEdgeNs    = 25  // compute cost charged per scanned edge
	batchEntries = 256 // (vertex,parent) pairs per message
)

// Params configures a distributed BFS run.
type Params struct {
	Lock    simlock.Kind
	Binding machine.Binding
	// Procs is the number of MPI processes.
	Procs int
	// Threads per process.
	Threads int
	// Scale is log2 of the vertex count; EdgeFactor is edges per vertex.
	Scale      int
	EdgeFactor int
	Seed       uint64
	// Roots is the number of BFS runs from distinct roots (default 1).
	Roots int
	// Fault configures the fault-injection plane (zero = perfect network).
	Fault fault.Config
	// MaxWall bounds real run time in wall-clock ns (0 = unlimited).
	MaxWall int64
}

func (p Params) withDefaults() Params {
	if p.Procs <= 0 {
		p.Procs = 1
	}
	if p.Threads <= 0 {
		p.Threads = 1
	}
	if p.Scale <= 0 {
		p.Scale = 14
	}
	if p.EdgeFactor <= 0 {
		p.EdgeFactor = 16
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	if p.Roots <= 0 {
		p.Roots = 1
	}
	return p
}

// Result reports a BFS run.
type Result struct {
	// MTEPS is millions of traversed edges per second of simulated time
	// (scanned directed edges / 2, the undirected convention).
	MTEPS float64
	// ScannedEdges counts directed edge scans across all runs.
	ScannedEdges int64
	// VisitedVertices counts vertices reached in the last run.
	VisitedVertices int64
	SimNs           int64
	Levels          int
	// Parent holds, per rank, the BFS parent of each owned vertex (-1 if
	// unvisited) for the last root; used by the validator.
	Parent [][]int64
	// Part is the vertex partition used.
	Part Partition
	// Roots lists the BFS roots actually used (for validation).
	Roots []int64
	// Net holds the resilience counters (all zero on a perfect network).
	Net mpi.NetStats
}

// procState is the shared per-process BFS state (the simulator runs one
// simthread at a time, so plain fields model shared memory exactly).
type procState struct {
	rank    int
	g       *CSR
	part    Partition
	visited []bool
	parent  []int64
	cur     []int64 // frontier as local rows
	next    []int64

	scanned      int64
	sentMsgs     []int64 // per peer, messages sent this level
	pendingSends []*mpi.Request
	dataSlots    []interface{} // per thread, its data receive's slot
	ctrlSlots    []interface{} // per control receive of a level
	recvdMsgs    int64
	expectedMsgs int64
	ctrlDone     bool
	globalNext   int64
	barrier      *sim.Barrier
}

func (st *procState) reset() {
	for i := range st.visited {
		st.visited[i] = false
		st.parent[i] = -1
	}
	st.cur = st.cur[:0]
	st.next = st.next[:0]
}

func (st *procState) claim(v, parent int64) {
	row := v - st.g.RowBase
	if !st.visited[row] {
		st.visited[row] = true
		st.parent[row] = parent
		st.next = append(st.next, row)
	}
}

// Run executes the BFS benchmark and returns its metrics.
func Run(p Params) (Result, error) {
	p = p.withDefaults()
	var res Result

	// One process per node.
	w, err := mpi.NewWorld(mpi.Config{
		Topo:    machine.Nehalem2x4(p.Procs),
		Lock:    p.Lock,
		Binding: p.Binding,
		Seed:    p.Seed,
		Fault:   p.Fault,
		MaxWall: p.MaxWall,
	})
	if err != nil {
		return res, err
	}
	c := w.Comm()

	edges := GenerateKronecker(p.Scale, p.EdgeFactor, p.Seed)
	part := NewPartition(int64(1)<<uint(p.Scale), p.Procs)
	states := make([]*procState, p.Procs)
	for r, g := range BuildCSRs(edges, part) {
		states[r] = &procState{
			rank:      r,
			g:         g,
			part:      part,
			visited:   make([]bool, g.Rows),
			parent:    make([]int64, g.Rows),
			sentMsgs:  make([]int64, p.Procs),
			dataSlots: make([]interface{}, p.Threads),
			ctrlSlots: make([]interface{}, p.Procs-1),
			barrier:   &sim.Barrier{N: p.Threads, Release: 200},
		}
		states[r].reset()
	}

	// Roots: pick vertices with non-zero degree deterministically.
	roots := pickRoots(edges, part, p.Roots, p.Seed)
	res.Roots = roots

	var endAt int64
	for r := 0; r < p.Procs; r++ {
		st := states[r]
		for t := 0; t < p.Threads; t++ {
			t := t
			w.Spawn(r, "bfs", func(th *mpi.Thread) {
				for _, root := range roots {
					bfsThread(th, c, p, st, t, root)
				}
				if th.S.Now() > endAt {
					endAt = th.S.Now()
				}
			})
		}
	}
	if err := w.Run(); err != nil {
		return res, fmt.Errorf("graph500(%v,scale=%d,procs=%d): %w", p.Lock, p.Scale, p.Procs, err)
	}

	for _, st := range states {
		res.ScannedEdges += st.scanned
		res.Parent = append(res.Parent, st.parent)
		for _, v := range st.visited {
			if v {
				res.VisitedVertices++
			}
		}
	}
	res.Part = part
	res.SimNs = endAt
	if endAt > 0 {
		res.MTEPS = float64(res.ScannedEdges) / 2 / (float64(endAt) / 1e9) / 1e6
	}
	res.Net = w.NetStats()
	if p.Fault.Enabled() {
		if err := w.CheckClean(); err != nil {
			return res, fmt.Errorf("graph500(%v,scale=%d,procs=%d): %w", p.Lock, p.Scale, p.Procs, err)
		}
	}
	return res, nil
}

// pickRoots deterministically selects vertices that have at least one
// non-loop edge.
func pickRoots(edges []Edge, part Partition, n int, seed uint64) []int64 {
	rng := sim.NewRand(seed ^ 0x9e3779b9)
	var roots []int64
	seen := map[int64]bool{}
	for len(roots) < n && len(edges) > 0 {
		e := edges[rng.Intn(len(edges))]
		if e.U != e.V && !seen[e.U] {
			seen[e.U] = true
			roots = append(roots, e.U)
		}
	}
	return roots
}

// bfsThread runs one thread's share of a level-synchronized BFS from root.
// Structure per the paper's hybrid design: threads scan disjoint chunks of
// the frontier, buffer remote discoveries per destination process, send
// them with nonblocking sends, and poll their own wildcard receive with
// MPI_Test — immediate calls only, so under the priority lock every entry
// is high priority (the paper's explanation for priority ≈ ticket here).
func bfsThread(th *mpi.Thread, c *mpi.Comm, p Params, st *procState, t int, root int64) {
	g := st.g
	part := st.part
	rank := st.rank
	// NUMA factor: threads on a socket other than the data's home socket
	// (where thread 0 lives) pay the remote-memory penalty.
	numaPct := int64(100)
	if th.Place().Socket != 0 {
		numaPct += th.P.Cost().RemoteMemPenaltyPct
	}

	if t == 0 {
		st.reset()
		st.scannedInit(part, rank, root)
	}
	st.barrier.Wait(th.S)

	for level := 0; ; level++ {
		dataTag := 2 * level
		ctrlTag := 2*level + 1
		slot := &st.dataSlots[t]
		myRecv := th.IrecvN(c, mpi.AnySource, dataTag, -1, slot)

		// Scan this thread's share of the frontier. Strided assignment
		// balances R-MAT's skewed degrees better than contiguous chunks.
		outBufs := make([][]int64, p.Procs)
		var localScanned, sinceCharge int64
		flush := func(dst int) {
			buf := outBufs[dst]
			if len(buf) == 0 {
				return
			}
			st.sentMsgs[dst]++
			req := th.Isend(c, dst, dataTag, int64(len(buf)*8), buf)
			st.pendingSends = append(st.pendingSends, req)
			outBufs[dst] = nil
		}
		charge := func() {
			if sinceCharge > 0 {
				th.S.Sleep(sinceCharge * perEdgeNs * numaPct / 100)
				sinceCharge = 0
			}
		}
		testRecv := func() {
			if done, _ := th.Test(myRecv); done { //simcheck:allow errdrop the BFS runs under MPI_ERRORS_ARE_FATAL; an error panics inside Test
				pairs := (*slot).([]int64)
				*slot = nil
				for i := 0; i+1 < len(pairs); i += 2 {
					st.claim(pairs[i], pairs[i+1])
				}
				st.recvdMsgs++
				myRecv = th.IrecvN(c, mpi.AnySource, dataTag, -1, slot)
			}
		}
		steps := 0
		for i := t; i < len(st.cur); i += p.Threads {
			row := st.cur[i]
			u := g.RowBase + row
			for _, v := range g.Neighbors(row) {
				localScanned++
				sinceCharge++
				if part.Owner(v) == rank {
					st.claim(v, u)
				} else {
					dst := part.Owner(v)
					outBufs[dst] = append(outBufs[dst], v, u)
					if len(outBufs[dst]) >= 2*batchEntries {
						flush(dst)
					}
				}
			}
			if steps++; steps%32 == 31 {
				charge()
				testRecv()
			}
		}
		charge()
		for dst := range outBufs {
			flush(dst)
		}
		st.scanned += localScanned
		st.barrier.Wait(th.S)

		// Level drain: thread 0 completes sends and exchanges per-peer
		// message counts; all threads poll until every expected message
		// has been consumed. Following the reference hybrid design, the
		// coordinator also uses only immediate MPI_Test calls here — a
		// blocking (low-priority) wait would starve under the priority
		// lock while the other threads keep issuing high-priority Tests.
		if t == 0 {
			pendingSends := st.pendingSends
			st.pendingSends = nil
			var ctrlSends []*mpi.Request
			ctrlRecvs := make([]*mpi.Request, 0, p.Procs-1)
			for j := 0; j < p.Procs; j++ {
				if j != rank {
					ctrlRecvs = append(ctrlRecvs, th.IrecvN(c, j, ctrlTag, -1, &st.ctrlSlots[len(ctrlRecvs)]))
					ctrlSends = append(ctrlSends, th.Isend(c, j, ctrlTag, 8, st.sentMsgs[j]))
					st.sentMsgs[j] = 0
				}
			}
			st.expectedMsgs = 0
			counted := 0
			for len(pendingSends) > 0 || len(ctrlSends) > 0 || counted < len(ctrlRecvs) {
				pendingSends = th.Testall(pendingSends)
				ctrlSends = th.Testall(ctrlSends)
				for i, r := range ctrlRecvs {
					if r != nil && r.Complete() {
						// Consume via Test so the request is freed.
						if done, _ := th.Test(r); done { //simcheck:allow errdrop the BFS runs under MPI_ERRORS_ARE_FATAL; an error panics inside Test
							st.expectedMsgs += st.ctrlSlots[i].(int64)
							ctrlRecvs[i] = nil // MPI_REQUEST_NULL: Test consumed it
							counted++
						}
					}
				}
				th.S.Sleep(50 + th.P.Rand().Int63n(150))
			}
			st.ctrlDone = true
		}
		for !st.ctrlDone || st.recvdMsgs < st.expectedMsgs {
			testRecv()
			th.S.Sleep(50 + th.P.Rand().Int63n(150))
		}
		if !myRecv.Complete() {
			th.CancelRecv(myRecv)
		} else {
			// A matched-but-unprocessed message would have kept the loop
			// going; completion here is a protocol violation.
			panic("graph500: uncounted message at level end")
		}
		st.barrier.Wait(th.S)

		if t == 0 {
			st.ctrlDone = false
			st.recvdMsgs = 0
			st.expectedMsgs = 0
			st.globalNext = th.AllreduceSum(c, int64(len(st.next)))
			st.cur, st.next = st.next, st.cur[:0]
		}
		st.barrier.Wait(th.S)
		if st.globalNext == 0 {
			return
		}
	}
}

// scannedInit seeds the frontier with the root if this rank owns it.
func (st *procState) scannedInit(part Partition, rank int, root int64) {
	if part.Owner(root) == rank {
		row := root - st.g.RowBase
		st.visited[row] = true
		st.parent[row] = root
		st.cur = append(st.cur, row)
	}
}

// chunk splits n items into T contiguous chunks and returns chunk t's
// half-open range.
func chunk(n, T, t int) (int, int) {
	lo := n * t / T
	hi := n * (t + 1) / T
	return lo, hi
}
