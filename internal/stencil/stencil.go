// Package stencil implements the paper's hybrid MPI+threads 3-D 7-point
// stencil kernel (§6.2.2): a Jacobi heat-equation sweep over a 3-D
// domain decomposition where every thread independently performs its own
// halo exchanges with nonblocking send/receive + Waitall and synchronizes
// with its process peers only at the end of each iteration.
//
// stencil is part of the deterministic core (docs/ARCHITECTURE.md).
package stencil

import (
	"fmt"

	"mpicontend/internal/fault"
	"mpicontend/internal/machine"
	"mpicontend/internal/mpi"
	"mpicontend/internal/sim"
	"mpicontend/internal/simlock"
)

// Params configures a stencil run.
type Params struct {
	Lock    simlock.Kind
	Binding machine.Binding
	// Procs is the number of MPI processes (one per node).
	Procs   int
	Threads int
	// NX, NY, NZ are the global grid dimensions; they must be divisible
	// by the process grid chosen for Procs (and NZ further by Threads
	// within each process).
	NX, NY, NZ int
	Iters      int
	Seed       uint64
	// PointNs is the compute cost per grid point per iteration.
	PointNs int64
	// KeepField records the final global field in the result (tests).
	KeepField bool
	// Funneled switches to the MPI_THREAD_FUNNELED structure the paper
	// says common hybrid stencils use (§6.2.2): only thread 0
	// communicates (whole-process faces), other threads just compute.
	// The runtime then runs lock-free, trading parallel communication
	// for zero thread-safety cost.
	Funneled bool
	// Progress selects who drives the progress engine (docs/PROGRESS.md).
	// Under continuation mode the halo-exchange Waitall drains a
	// completion queue instead of polling the critical section.
	// Incompatible with Funneled (non-polling modes need
	// MPI_THREAD_MULTIPLE; NewWorld rejects the combination).
	Progress mpi.ProgressMode
	// Partitioned switches the X/Y halo faces to MPI-4 partitioned
	// channels: one persistent Psend/Precv pair per face per process with
	// Threads partitions, where partition t carries thread t's slab rows.
	// Each thread packs its own rows and flips a lock-free readiness bit
	// (Pready); only the last thread's flip enters the runtime critical
	// section to push the whole face as one aggregated transfer. Z faces
	// (one message per process pair) stay on the regular eager path.
	// Requires MPI_THREAD_MULTIPLE (incompatible with Funneled).
	Partitioned bool
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
	if p.NX <= 0 {
		p.NX = 32
	}
	if p.NY <= 0 {
		p.NY = 32
	}
	if p.NZ <= 0 {
		p.NZ = 32
	}
	if p.Iters <= 0 {
		p.Iters = 4
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	if p.PointNs <= 0 {
		p.PointNs = 5
	}
	return p
}

// Result reports a stencil run.
type Result struct {
	GFlops float64
	SimNs  int64
	// Breakdown percentages over summed thread time (Fig. 11b).
	MPIPct, ComputePct, SyncPct float64
	// Checksum is the sum of the final field (validation).
	Checksum float64
	// Field is the assembled final global field when KeepField was set,
	// indexed [z][y][x] flattened as z*NY*NX + y*NX + x.
	Field []float64
	// Net holds the resilience counters (all zero on a perfect network).
	Net mpi.NetStats
	// Part holds the partitioned-communication counters (all zero unless
	// Partitioned was set).
	Part mpi.PartStats
}

// flopsPerPoint is the 7-point update's floating-point operation count.
const flopsPerPoint = 8

// procGrid factors n into three near-equal factors (px >= py >= pz).
func procGrid(n int) (int, int, int) {
	best := [3]int{n, 1, 1}
	bestScore := n * n
	for px := 1; px <= n; px++ {
		if n%px != 0 {
			continue
		}
		rem := n / px
		for py := 1; py <= rem; py++ {
			if rem%py != 0 {
				continue
			}
			pz := rem / py
			score := px*px + py*py + pz*pz
			if score < bestScore {
				bestScore = score
				best = [3]int{px, py, pz}
			}
		}
	}
	return best[0], best[1], best[2]
}

// field is one process's padded local block.
type field struct {
	nx, ny, nz int
	cur, next  []float64
}

func (f *field) idx(x, y, z int) int {
	return (z*(f.ny+2)+y)*(f.nx+2) + x
}

// procState is the shared per-process stencil state.
type procState struct {
	rank       int
	cx, cy, cz int // process grid coordinates
	px, py, pz int
	f          field
	ox, oy, oz int // global origin of local interior
	barrier    *sim.Barrier

	// pfaces is the per-process partitioned channel set (Partitioned mode
	// only), built once by thread 0 before the iteration loop.
	pfaces []*pface

	mpiNs, compNs, syncNs int64
}

// initField fills the interior with a deterministic pattern of the global
// coordinates; ghosts stay zero (Dirichlet boundary).
func (st *procState) initField() {
	for z := 1; z <= st.f.nz; z++ {
		for y := 1; y <= st.f.ny; y++ {
			for x := 1; x <= st.f.nx; x++ {
				gx, gy, gz := st.ox+x-1, st.oy+y-1, st.oz+z-1
				st.f.cur[st.f.idx(x, y, z)] = float64((gx*31+gy*17+gz*7)%97) / 97.0
			}
		}
	}
}

// Run executes the stencil benchmark.
func Run(p Params) (Result, error) {
	p = p.withDefaults()
	var res Result
	px, py, pz := procGrid(p.Procs)
	if p.NX%px != 0 || p.NY%py != 0 || p.NZ%pz != 0 {
		return res, fmt.Errorf("stencil: grid %dx%dx%d not divisible by process grid %dx%dx%d",
			p.NX, p.NY, p.NZ, px, py, pz)
	}
	nx, ny, nz := p.NX/px, p.NY/py, p.NZ/pz
	if nz%p.Threads != 0 {
		return res, fmt.Errorf("stencil: local nz=%d not divisible by %d threads", nz, p.Threads)
	}
	if p.Partitioned && p.Funneled {
		return res, fmt.Errorf("stencil: Partitioned requires MPI_THREAD_MULTIPLE (incompatible with Funneled)")
	}

	level := mpi.ThreadMultiple
	if p.Funneled {
		level = mpi.ThreadFunneled
	}
	w, err := mpi.NewWorld(mpi.Config{
		Topo:        machine.Nehalem2x4(p.Procs),
		Lock:        p.Lock,
		ThreadLevel: level,
		Binding:     p.Binding,
		Seed:        p.Seed,
		Fault:       p.Fault,
		MaxWall:     p.MaxWall,
		Progress:    p.Progress,
	})
	if err != nil {
		return res, err
	}
	c := w.Comm()

	states := make([]*procState, p.Procs)
	for r := 0; r < p.Procs; r++ {
		cx := r % px
		cy := (r / px) % py
		cz := r / (px * py)
		st := &procState{
			rank: r, cx: cx, cy: cy, cz: cz, px: px, py: py, pz: pz,
			f: field{
				nx: nx, ny: ny, nz: nz,
				cur:  make([]float64, (nx+2)*(ny+2)*(nz+2)),
				next: make([]float64, (nx+2)*(ny+2)*(nz+2)),
			},
			ox: cx * nx, oy: cy * ny, oz: cz * nz,
			barrier: &sim.Barrier{N: p.Threads, Release: 200},
		}
		st.initField()
		states[r] = st
	}

	var endAt int64
	for r := 0; r < p.Procs; r++ {
		st := states[r]
		for t := 0; t < p.Threads; t++ {
			t := t
			w.Spawn(r, "stencil", func(th *mpi.Thread) {
				stencilThread(th, c, p, st, t)
				if th.S.Now() > endAt {
					endAt = th.S.Now()
				}
			})
		}
	}
	if err := w.Run(); err != nil {
		return res, fmt.Errorf("stencil(%v,%d procs): %w", p.Lock, p.Procs, err)
	}

	var mpiNs, compNs, syncNs int64
	for _, st := range states {
		mpiNs += st.mpiNs
		compNs += st.compNs
		syncNs += st.syncNs
		for z := 1; z <= st.f.nz; z++ {
			for y := 1; y <= st.f.ny; y++ {
				for x := 1; x <= st.f.nx; x++ {
					res.Checksum += st.f.cur[st.f.idx(x, y, z)]
				}
			}
		}
	}
	total := mpiNs + compNs + syncNs
	if total > 0 {
		res.MPIPct = 100 * float64(mpiNs) / float64(total)
		res.ComputePct = 100 * float64(compNs) / float64(total)
		res.SyncPct = 100 * float64(syncNs) / float64(total)
	}
	res.SimNs = endAt
	if endAt > 0 {
		points := float64(p.NX) * float64(p.NY) * float64(p.NZ) * float64(p.Iters)
		res.GFlops = points * flopsPerPoint / float64(endAt)
	}
	if p.KeepField {
		res.Field = make([]float64, p.NX*p.NY*p.NZ)
		for _, st := range states {
			for z := 1; z <= st.f.nz; z++ {
				for y := 1; y <= st.f.ny; y++ {
					for x := 1; x <= st.f.nx; x++ {
						gx, gy, gz := st.ox+x-1, st.oy+y-1, st.oz+z-1
						res.Field[(gz*p.NY+gy)*p.NX+gx] = st.f.cur[st.f.idx(x, y, z)]
					}
				}
			}
		}
	}
	res.Net = w.NetStats()
	res.Part = w.PartStats()
	if p.Fault.Enabled() {
		if err := w.CheckClean(); err != nil {
			return res, fmt.Errorf("stencil(%v,%d procs): %w", p.Lock, p.Procs, err)
		}
	}
	return res, nil
}

// rankOf maps process grid coordinates to a rank, or -1 outside the grid.
func (st *procState) rankOf(cx, cy, cz int) int {
	if cx < 0 || cx >= st.px || cy < 0 || cy >= st.py || cz < 0 || cz >= st.pz {
		return -1
	}
	return (cz*st.py+cy)*st.px + cx
}

// neighbour returns the rank across face dir (0:-x 1:+x 2:-y 3:+y 4:-z
// 5:+z), or -1 at the domain boundary.
func (st *procState) neighbour(dir int) int {
	c := [3]int{st.cx, st.cy, st.cz}
	c[dir/2] += 2*(dir%2) - 1
	return st.rankOf(c[0], c[1], c[2])
}

// opposite returns the direction a neighbour uses for the same face.
func opposite(dir int) int { return dir ^ 1 }

// span is a face of the padded block: n rows of m cells, cell (i, j) at
// base + i*so + j*si.
type span struct{ base, so, si, n, m int }

func (s span) len() int { return s.n * s.m }

// pack copies the span's cells of src into out, row by row.
func (s span) pack(src, out []float64) {
	k := 0
	for i := 0; i < s.n; i++ {
		for j, c := 0, s.base+i*s.so; j < s.m; j, c = j+1, c+s.si {
			out[k] = src[c]
			k++
		}
	}
}

// unpack is pack's inverse: it copies in into the span's cells of dst.
func (s span) unpack(in, dst []float64) {
	k := 0
	for i := 0; i < s.n; i++ {
		for j, c := 0, s.base+i*s.so; j < s.m; j, c = j+1, c+s.si {
			dst[c] = in[k]
			k++
		}
	}
}

// faceSpans returns face dir of the planes [z0, z1) — the whole boundary
// plane for Z faces — as the interior layer sent to the neighbour and the
// ghost layer its copy fills.
func (f *field) faceSpans(dir, z0, z1 int) (send, ghost span) {
	row, plane := f.nx+2, (f.nx+2)*(f.ny+2)
	var step, n int // distance to the next layer along the axis; its extent
	switch dir / 2 {
	case 0: // x faces: the ny rows of each plane
		send = span{base: f.idx(1, 1, z0), so: plane, si: row, n: z1 - z0, m: f.ny}
		step, n = 1, f.nx
	case 1: // y faces: the nx columns of each plane
		send = span{base: f.idx(1, 1, z0), so: plane, si: 1, n: z1 - z0, m: f.nx}
		step, n = row, f.ny
	default: // z faces
		send = span{base: f.idx(1, 1, 1), so: row, si: 1, n: f.ny, m: f.nx}
		step, n = plane, f.nz
	}
	ghost = send
	if dir%2 == 1 {
		send.base += (n - 1) * step
		ghost.base = send.base + step
	} else {
		ghost.base -= step
	}
	return send, ghost
}

// face is one halo face a thread exchanges.
type face struct {
	dir, peer   int
	tc          int // thread component of the tags: t for X/Y faces, else 0
	send, ghost span
}

// pface is one X/Y face's partitioned channel state, shared by all threads
// of a process. Double-buffered by iteration parity so a sender never
// repacks a buffer before the neighbor unpacked the previous epoch: rank A
// packs parity p again only at iteration i+2, which (through the Pwait /
// trigger dependency chain of iteration i+1) is after rank B unpacked
// iteration i.
type pface struct {
	count int // values per thread partition (face rows of one slab)
	psend [2]*mpi.Prequest
	precv [2]*mpi.Prequest
	sbuf  [2][]float64 // partition-major: thread t owns [t*count, (t+1)*count)
}

// stencilThread runs one thread's slab for all iterations. Its halo
// exchange is chosen once, before the loop: every face eager (nonblocking
// send/receive + Waitall), or — under Params.Partitioned — X/Y faces on
// MPI-4 partitioned channels with the Z faces still eager.
//
// The partitioned channel set is shared by the whole process: thread 0
// owns the epoch lifecycle (Pstart at exchange start, Pwait in the swap
// window), every thread packs its own slab rows into the face buffer and
// publishes them with a lock-free Pready(t), and on the receive side every
// thread spin-probes Parrived(t) before unpacking its own rows. Only the
// last Pready of a face enters the runtime critical section, so each face
// costs one lock acquisition per iteration instead of one per thread. Z
// faces are a single whole-plane message owned by a boundary slab, so
// there is nothing to partition across threads.
func stencilThread(th *mpi.Thread, c *mpi.Comm, p Params, st *procState, t int) {
	f := &st.f
	slab := f.nz / p.Threads
	z0 := 1 + t*slab
	z1 := z0 + slab // exclusive
	// Communication range: per-thread slab under THREAD_MULTIPLE; the
	// whole process block for thread 0 (and nothing for others) under
	// FUNNELED.
	cz0, cz1 := z0, z1
	tc := t
	communicates := true
	if p.Funneled {
		tc = 0
		if t == 0 {
			cz0, cz1 = 1, f.nz+1
		} else {
			communicates = false
		}
	}

	// eager and parts hold this thread's faces in direction order; parts
	// are the X/Y faces riding st.pfaces (same index).
	var eager, parts []face
	for dir := 0; dir < 6 && communicates; dir++ {
		peer := st.neighbour(dir)
		if peer < 0 {
			continue
		}
		fc := face{dir: dir, peer: peer, tc: tc}
		fc.send, fc.ghost = f.faceSpans(dir, cz0, cz1)
		switch {
		case dir >= 4:
			// Z faces belong to the boundary slabs only; one message per
			// face.
			if (dir == 4 && cz0 != 1) || (dir == 5 && cz1 != f.nz+1) {
				continue
			}
			fc.tc = 0
			eager = append(eager, fc)
		case p.Partitioned:
			parts = append(parts, fc)
		default:
			eager = append(eager, fc)
		}
	}
	if p.Partitioned {
		// Thread 0 builds the shared partitioned channels; double-buffered
		// by iteration parity (see pface) with the parity encoded in the
		// tag.
		if t == 0 {
			for _, fc := range parts {
				pf := &pface{count: fc.send.len()}
				for par := 0; par < 2; par++ {
					pf.sbuf[par] = make([]float64, pf.count*p.Threads)
					pf.psend[par] = th.PsendInit(c, fc.peer, fc.dir*64+par, p.Threads, int64(pf.count*8), pf.sbuf[par])
					pf.precv[par] = th.PrecvInit(c, fc.peer, opposite(fc.dir)*64+par, p.Threads, int64(pf.count*8))
				}
				st.pfaces = append(st.pfaces, pf)
			}
		}
		st.barrier.Wait(th.S)
	}

	cost := th.P.Cost()
	pointNs := p.PointNs
	if th.Place().Socket != 0 {
		pointNs = pointNs * (100 + cost.RemoteMemPenaltyPct) / 100
	}
	reqs := make([]*mpi.Request, 0, 2*len(eager))
	bufs := make([]interface{}, len(eager)) // receive slots, one per eager face
	for iter := 0; iter < p.Iters; iter++ {
		// Halo exchange: open the partitioned epochs, post all eager
		// receives, publish the partitioned rows, pack+send the eager
		// faces, waitall, then collect the partitioned rows. Threads
		// without faces (workers under FUNNELED) make no MPI calls at
		// all, as the thread level requires.
		par := iter % 2
		t0 := th.S.Now()
		if p.Partitioned {
			// Thread 0 opens this iteration's epochs; the barrier keeps
			// any Pready/Parrived from racing ahead of the Pstart.
			if t == 0 {
				for _, pf := range st.pfaces {
					th.Pstart(pf.psend[par])
					th.Pstart(pf.precv[par])
				}
			}
			st.barrier.Wait(th.S)
		}
		reqs = reqs[:0]
		for i, fc := range eager {
			reqs = append(reqs, th.IrecvN(c, fc.peer, opposite(fc.dir)*64+fc.tc, -1, &bufs[i]))
		}
		// The last Pready of a face triggers its single aggregated
		// transfer.
		for i, fc := range parts {
			pf := st.pfaces[i]
			fc.send.pack(f.cur, pf.sbuf[par][t*pf.count:(t+1)*pf.count])
			th.S.Sleep(cost.CopyTime(int64(pf.count * 8))) // pack cost
			th.Pready(pf.psend[par], t)                    //simcheck:allow errdrop halo exchange runs under the fatal handler; errors panic inside Pready
		}
		for _, fc := range eager {
			data := make([]float64, fc.send.len())
			fc.send.pack(f.cur, data)
			th.S.Sleep(cost.CopyTime(int64(len(data) * 8))) // pack cost
			reqs = append(reqs, th.Isend(c, fc.peer, fc.dir*64+fc.tc, int64(len(data)*8), data))
		}
		if len(reqs) > 0 {
			th.Waitall(reqs) //simcheck:allow errdrop halo exchange runs under the fatal handler; errors panic inside Waitall
			for i, fc := range eager {
				data := bufs[i].([]float64)
				th.S.Sleep(cost.CopyTime(int64(len(data) * 8))) // unpack cost
				fc.ghost.unpack(data, f.cur)
			}
		}
		// Consume this thread's partitions: spin on fine-grained arrival,
		// then unpack only our own rows from the aggregated face.
		for i, fc := range parts {
			pf := st.pfaces[i]
			for {
				ok, _ := th.Parrived(pf.precv[par], t) //simcheck:allow errdrop halo exchange runs under the fatal handler; errors panic inside Parrived
				if ok {
					break
				}
				th.S.Sleep(cost.ProgressLoopOverhead)
			}
			in := pf.precv[par].Data().([]float64)
			th.S.Sleep(cost.CopyTime(int64(pf.count * 8))) // unpack cost
			fc.ghost.unpack(in[t*pf.count:(t+1)*pf.count], f.cur)
		}
		if p.Funneled {
			// Workers must not read ghost cells before thread 0 finished
			// the exchange.
			st.barrier.Wait(th.S)
		}
		st.mpiNs += th.S.Now() - t0

		// Compute the slab (real 7-point Jacobi update).
		t1 := th.S.Now()
		const alpha = 0.1
		for z := z0; z < z1; z++ {
			for y := 1; y <= f.ny; y++ {
				base := f.idx(0, y, z)
				for x := 1; x <= f.nx; x++ {
					i := base + x
					lap := f.cur[i-1] + f.cur[i+1] +
						f.cur[i-(f.nx+2)] + f.cur[i+(f.nx+2)] +
						f.cur[i-(f.nx+2)*(f.ny+2)] + f.cur[i+(f.nx+2)*(f.ny+2)] -
						6*f.cur[i]
					f.next[i] = f.cur[i] + alpha*lap
				}
			}
		}
		th.S.Sleep(int64(f.nx*f.ny*(z1-z0)) * pointNs)
		st.compNs += th.S.Now() - t1

		// End-of-iteration thread synchronization (OpenMP-style barrier).
		// Thread 0 retires the partitioned epochs in the swap window:
		// after the first barrier no thread can still be probing Parrived
		// on this parity, and the epochs must be closed before iteration
		// i+2 reopens the same pair.
		t2 := th.S.Now()
		st.barrier.Wait(th.S)
		if t == 0 {
			for _, pf := range st.pfaces {
				th.Pwait(pf.psend[par]) //simcheck:allow errdrop halo exchange runs under the fatal handler; errors panic inside Pwait
				th.Pwait(pf.precv[par]) //simcheck:allow errdrop halo exchange runs under the fatal handler; errors panic inside Pwait
			}
			f.cur, f.next = f.next, f.cur
		}
		st.barrier.Wait(th.S)
		st.syncNs += th.S.Now() - t2
	}
}
