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

// pface is one X/Y face's partitioned channel state, shared by all threads
// of a process. Double-buffered by iteration parity so a sender never
// repacks a buffer before the neighbor unpacked the previous epoch: rank A
// packs parity p again only at iteration i+2, which (through the Pwait /
// trigger dependency chain of iteration i+1) is after rank B unpacked
// iteration i.
type pface struct {
	dir   int // 0:-x 1:+x 2:-y 3:+y
	peer  int
	count int // values per thread partition (face rows of one slab)
	psend [2]*mpi.Prequest
	precv [2]*mpi.Prequest
	sbuf  [2][]float64 // partition-major: thread t owns [t*count, (t+1)*count)
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
				if p.Partitioned {
					partitionedThread(th, c, p, st, t)
				} else {
					stencilThread(th, c, p, st, t)
				}
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

// stencilThread runs one thread's slab for all iterations.
func stencilThread(th *mpi.Thread, c *mpi.Comm, p Params, st *procState, t int) {
	f := &st.f
	slab := f.nz / p.Threads
	z0 := 1 + t*slab
	z1 := z0 + slab // exclusive
	// Communication range: per-thread slab under THREAD_MULTIPLE; the
	// whole process block for thread 0 (and nothing for others) under
	// FUNNELED.
	cz0, cz1 := z0, z1
	commTag := t
	communicates := true
	if p.Funneled {
		commTag = 0
		if t == 0 {
			cz0, cz1 = 1, f.nz+1
		} else {
			communicates = false
		}
	}

	type haloOp struct {
		dir    int // 0:-x 1:+x 2:-y 3:+y 4:-z 5:+z
		peer   int
		tag    int
		count  int
		pack   func() []float64
		unpack func([]float64)
	}
	var ops []haloOp
	addXY := func(dir, peer int) {
		// This thread exchanges its z-range's rows of the +/-x or +/-y face.
		tag := dir*64 + commTag
		switch dir {
		case 0, 1: // x faces: count = ny * slabz
			x := 1
			gx := 0
			if dir == 1 {
				x = f.nx
				gx = f.nx + 1
			}
			ops = append(ops, haloOp{dir: dir, peer: peer, tag: tag,
				count: f.ny * (cz1 - cz0),
				pack: func() []float64 {
					out := make([]float64, 0, f.ny*(cz1-cz0))
					for z := cz0; z < cz1; z++ {
						for y := 1; y <= f.ny; y++ {
							out = append(out, f.cur[f.idx(x, y, z)])
						}
					}
					return out
				},
				unpack: func(in []float64) {
					i := 0
					for z := cz0; z < cz1; z++ {
						for y := 1; y <= f.ny; y++ {
							f.cur[f.idx(gx, y, z)] = in[i]
							i++
						}
					}
				}})
		case 2, 3: // y faces
			y := 1
			gy := 0
			if dir == 3 {
				y = f.ny
				gy = f.ny + 1
			}
			ops = append(ops, haloOp{dir: dir, peer: peer, tag: tag,
				count: f.nx * (cz1 - cz0),
				pack: func() []float64 {
					out := make([]float64, 0, f.nx*(cz1-cz0))
					for z := cz0; z < cz1; z++ {
						for x := 1; x <= f.nx; x++ {
							out = append(out, f.cur[f.idx(x, y, z)])
						}
					}
					return out
				},
				unpack: func(in []float64) {
					i := 0
					for z := cz0; z < cz1; z++ {
						for x := 1; x <= f.nx; x++ {
							f.cur[f.idx(x, gy, z)] = in[i]
							i++
						}
					}
				}})
		}
	}
	if communicates {
		if peer := st.rankOf(st.cx-1, st.cy, st.cz); peer >= 0 {
			addXY(0, peer)
		}
		if peer := st.rankOf(st.cx+1, st.cy, st.cz); peer >= 0 {
			addXY(1, peer)
		}
		if peer := st.rankOf(st.cx, st.cy-1, st.cz); peer >= 0 {
			addXY(2, peer)
		}
		if peer := st.rankOf(st.cx, st.cy+1, st.cz); peer >= 0 {
			addXY(3, peer)
		}
	}
	// Z faces belong to the boundary slabs only; one message per face.
	if communicates && (t == 0 || p.Funneled) {
		if peer := st.rankOf(st.cx, st.cy, st.cz-1); peer >= 0 {
			ops = append(ops, haloOp{dir: 4, peer: peer, tag: 4 * 64,
				count:  f.nx * f.ny,
				pack:   func() []float64 { return packZ(f, 1) },
				unpack: func(in []float64) { unpackZ(f, 0, in) }})
		}
	}
	if communicates && (t == p.Threads-1 || p.Funneled) {
		if peer := st.rankOf(st.cx, st.cy, st.cz+1); peer >= 0 {
			ops = append(ops, haloOp{dir: 5, peer: peer, tag: 5 * 64,
				count:  f.nx * f.ny,
				pack:   func() []float64 { return packZ(f, f.nz) },
				unpack: func(in []float64) { unpackZ(f, f.nz+1, in) }})
		}
	}

	cost := th.P.Cost()
	pointNs := p.PointNs
	if th.Place().Socket != 0 {
		pointNs = pointNs * (100 + cost.RemoteMemPenaltyPct) / 100
	}
	reqs := make([]*mpi.Request, 0, 2*len(ops))
	bufs := make([]interface{}, len(ops)) // receive slots, one per face
	for iter := 0; iter < p.Iters; iter++ {
		// Halo exchange: post all receives, pack+send all faces, waitall.
		// Threads without halo operations (workers under FUNNELED) make
		// no MPI calls at all, as the thread level requires.
		t0 := th.S.Now()
		if len(ops) > 0 {
			reqs = reqs[:0]
			for i, op := range ops {
				reqs = append(reqs, th.IrecvN(c, op.peer, opposite(op.dir)*64+tagThread(op.dir, commTag), -1, &bufs[i]))
			}
			for i := range ops {
				op := &ops[i]
				data := op.pack()
				th.S.Sleep(cost.CopyTime(int64(len(data) * 8))) // pack cost
				reqs = append(reqs, th.Isend(c, op.peer, op.tag, int64(len(data)*8), data))
			}
			th.Waitall(reqs) //simcheck:allow errdrop halo exchange runs under the fatal handler; errors panic inside Waitall
			for i := range ops {
				data := bufs[i].([]float64)
				th.S.Sleep(cost.CopyTime(int64(len(data) * 8))) // unpack cost
				ops[i].unpack(data)
			}
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
		t2 := th.S.Now()
		st.barrier.Wait(th.S)
		if t == 0 {
			f.cur, f.next = f.next, f.cur
		}
		st.barrier.Wait(th.S)
		st.syncNs += th.S.Now() - t2
	}
}

// partitionedThread runs one thread's slab with X/Y halos on MPI-4
// partitioned channels (Params.Partitioned). The channel set is shared by
// the whole process: thread 0 owns the epoch lifecycle (Pstart at exchange
// start, Pwait in the swap window), every thread packs its own slab rows
// into the face buffer and publishes them with a lock-free Pready(t), and
// on the receive side every thread spin-probes Parrived(t) before
// unpacking its own rows. Only the last Pready of a face enters the
// runtime critical section, so each face costs one lock acquisition per
// iteration instead of one per thread. Z faces keep the regular eager
// path of stencilThread (they are a single whole-plane message owned by a
// boundary slab, so there is nothing to partition across threads).
func partitionedThread(th *mpi.Thread, c *mpi.Comm, p Params, st *procState, t int) {
	f := &st.f
	slab := f.nz / p.Threads
	z0 := 1 + t*slab
	z1 := z0 + slab // exclusive
	cost := th.P.Cost()
	pointNs := p.PointNs
	if th.Place().Socket != 0 {
		pointNs = pointNs * (100 + cost.RemoteMemPenaltyPct) / 100
	}

	// Thread 0 builds the shared partitioned channels; double-buffered by
	// iteration parity (see pface) with the parity encoded in the tag.
	if t == 0 {
		add := func(dir, peer int) {
			count := f.ny * slab // x faces: ny rows per slab plane
			if dir >= 2 {
				count = f.nx * slab // y faces
			}
			pf := &pface{dir: dir, peer: peer, count: count}
			for par := 0; par < 2; par++ {
				pf.sbuf[par] = make([]float64, count*p.Threads)
				pf.psend[par] = th.PsendInit(c, peer, dir*64+par, p.Threads, int64(count*8), pf.sbuf[par])
				pf.precv[par] = th.PrecvInit(c, peer, opposite(dir)*64+par, p.Threads, int64(count*8))
			}
			st.pfaces = append(st.pfaces, pf)
		}
		if peer := st.rankOf(st.cx-1, st.cy, st.cz); peer >= 0 {
			add(0, peer)
		}
		if peer := st.rankOf(st.cx+1, st.cy, st.cz); peer >= 0 {
			add(1, peer)
		}
		if peer := st.rankOf(st.cx, st.cy-1, st.cz); peer >= 0 {
			add(2, peer)
		}
		if peer := st.rankOf(st.cx, st.cy+1, st.cz); peer >= 0 {
			add(3, peer)
		}
	}
	st.barrier.Wait(th.S)

	// Z faces: regular eager messages owned by the boundary slabs.
	type zop struct {
		peer, tag int
		plane     int // source plane to pack
		ghost     int // ghost plane to unpack into
	}
	var zops []zop
	if t == 0 {
		if peer := st.rankOf(st.cx, st.cy, st.cz-1); peer >= 0 {
			zops = append(zops, zop{peer: peer, tag: 4 * 64, plane: 1, ghost: 0})
		}
	}
	if t == p.Threads-1 {
		if peer := st.rankOf(st.cx, st.cy, st.cz+1); peer >= 0 {
			zops = append(zops, zop{peer: peer, tag: 5 * 64, plane: f.nz, ghost: f.nz + 1})
		}
	}

	packFace := func(pf *pface, out []float64) {
		i := 0
		if pf.dir < 2 {
			x := 1
			if pf.dir == 1 {
				x = f.nx
			}
			for z := z0; z < z1; z++ {
				for y := 1; y <= f.ny; y++ {
					out[i] = f.cur[f.idx(x, y, z)]
					i++
				}
			}
		} else {
			y := 1
			if pf.dir == 3 {
				y = f.ny
			}
			for z := z0; z < z1; z++ {
				for x := 1; x <= f.nx; x++ {
					out[i] = f.cur[f.idx(x, y, z)]
					i++
				}
			}
		}
	}
	unpackFace := func(pf *pface, in []float64) {
		i := 0
		if pf.dir < 2 {
			gx := 0
			if pf.dir == 1 {
				gx = f.nx + 1
			}
			for z := z0; z < z1; z++ {
				for y := 1; y <= f.ny; y++ {
					f.cur[f.idx(gx, y, z)] = in[i]
					i++
				}
			}
		} else {
			gy := 0
			if pf.dir == 3 {
				gy = f.ny + 1
			}
			for z := z0; z < z1; z++ {
				for x := 1; x <= f.nx; x++ {
					f.cur[f.idx(x, gy, z)] = in[i]
					i++
				}
			}
		}
	}

	zreqs := make([]*mpi.Request, 0, 2*len(zops))
	zbufs := make([]interface{}, len(zops)) // receive slots, one per Z face
	for iter := 0; iter < p.Iters; iter++ {
		par := iter % 2
		t0 := th.S.Now()
		// Thread 0 opens this iteration's epochs; the barrier keeps any
		// Pready/Parrived from racing ahead of the Pstart.
		if t == 0 {
			for _, pf := range st.pfaces {
				th.Pstart(pf.psend[par])
				th.Pstart(pf.precv[par])
			}
		}
		st.barrier.Wait(th.S)

		// Z faces: post receives first (as the eager path does).
		zreqs = zreqs[:0]
		for i, op := range zops {
			zreqs = append(zreqs, th.IrecvN(c, op.peer, opposite(op.tag/64)*64, -1, &zbufs[i]))
		}

		// Publish this thread's slab rows on every X/Y face: pack into the
		// shared buffer, then a lock-free readiness flip. The last flip of
		// a face triggers the single aggregated transfer.
		for _, pf := range st.pfaces {
			packFace(pf, pf.sbuf[par][t*pf.count:(t+1)*pf.count])
			th.S.Sleep(cost.CopyTime(int64(pf.count * 8))) // pack cost
			th.Pready(pf.psend[par], t)                    //simcheck:allow errdrop halo exchange runs under the fatal handler; errors panic inside Pready
		}

		// Z faces: pack + eager send, then drain.
		for _, op := range zops {
			data := packZ(f, op.plane)
			th.S.Sleep(cost.CopyTime(int64(len(data) * 8))) // pack cost
			zreqs = append(zreqs, th.Isend(c, op.peer, op.tag, int64(len(data)*8), data))
		}
		if len(zreqs) > 0 {
			th.Waitall(zreqs) //simcheck:allow errdrop halo exchange runs under the fatal handler; errors panic inside Waitall
			for i, op := range zops {
				data := zbufs[i].([]float64)
				th.S.Sleep(cost.CopyTime(int64(len(data) * 8))) // unpack cost
				unpackZ(f, op.ghost, data)
			}
		}

		// Consume this thread's partitions: spin on fine-grained arrival,
		// then unpack only our own rows from the aggregated face.
		for _, pf := range st.pfaces {
			for {
				ok, _ := th.Parrived(pf.precv[par], t) //simcheck:allow errdrop halo exchange runs under the fatal handler; errors panic inside Parrived
				if ok {
					break
				}
				th.S.Sleep(cost.ProgressLoopOverhead)
			}
			in := pf.precv[par].Data().([]float64)
			th.S.Sleep(cost.CopyTime(int64(pf.count * 8))) // unpack cost
			unpackFace(pf, in[t*pf.count:(t+1)*pf.count])
		}
		st.mpiNs += th.S.Now() - t0

		// Compute the slab (identical to stencilThread).
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

		// End-of-iteration synchronization. Thread 0 retires the epochs in
		// the swap window: after the first barrier no thread can still be
		// probing Parrived on this parity, and the epochs must be closed
		// before iteration i+2 reopens the same pair.
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

// tagThread returns the thread component of a halo tag: X/Y faces pair
// thread t with thread t; Z faces use a single message.
func tagThread(dir, t int) int {
	if dir >= 4 {
		return 0
	}
	return t
}

// opposite returns the direction a neighbor uses for the same face.
func opposite(dir int) int {
	switch dir {
	case 0:
		return 1
	case 1:
		return 0
	case 2:
		return 3
	case 3:
		return 2
	case 4:
		return 5
	default:
		return 4
	}
}

func packZ(f *field, z int) []float64 {
	out := make([]float64, 0, f.nx*f.ny)
	for y := 1; y <= f.ny; y++ {
		for x := 1; x <= f.nx; x++ {
			out = append(out, f.cur[f.idx(x, y, z)])
		}
	}
	return out
}

func unpackZ(f *field, z int, in []float64) {
	i := 0
	for y := 1; y <= f.ny; y++ {
		for x := 1; x <= f.nx; x++ {
			f.cur[f.idx(x, y, z)] = in[i]
			i++
		}
	}
}
