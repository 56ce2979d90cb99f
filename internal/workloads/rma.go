package workloads

import (
	"fmt"

	"mpicontend/internal/armci"
	"mpicontend/internal/fault"
	"mpicontend/internal/machine"
	"mpicontend/internal/mpi"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
)

// RMAOp selects the one-sided operation benchmarked.
type RMAOp int

const (
	// OpPut benchmarks MPI_Put-style transfers.
	OpPut RMAOp = iota
	// OpGet benchmarks MPI_Get-style transfers.
	OpGet
	// OpAcc benchmarks MPI_Accumulate-style transfers.
	OpAcc
)

// String names the operation.
func (o RMAOp) String() string {
	switch o {
	case OpPut:
		return "Put"
	case OpGet:
		return "Get"
	default:
		return "Accumulate"
	}
}

// RMAParams configures the §6.1.2 experiment: a single-threaded origin
// process performs contiguous RMA data transfers to/from all other
// processes while every process runs an asynchronous progress thread —
// which is what drags the runtime into MPI_THREAD_MULTIPLE and makes lock
// arbitration matter even with one application thread.
type RMAParams struct {
	Lock simlock.Kind
	Op   RMAOp
	// Procs is the number of processes (paper: 8).
	Procs int
	// ElemBytes is the size of each contiguous data element (must be a
	// multiple of 8; elements are float64 vectors).
	ElemBytes int64
	// Ops is the number of operations issued per target.
	Ops int
	// Flush after this many outstanding ops (window).
	Window int
	Seed   uint64
	// Progress selects who drives the progress engine (default polling;
	// ProgressSelective is the §9 selective wake-up).
	Progress mpi.ProgressMode
	// Fault configures the fault-injection plane (zero = perfect network).
	Fault fault.Config
	// MaxWall bounds real run time in wall-clock ns (0 = unlimited).
	MaxWall int64
	// Tel attaches the telemetry plane (nil = disabled, zero overhead).
	Tel *telemetry.Recorder
}

func (p RMAParams) withDefaults() RMAParams {
	if p.Procs <= 0 {
		p.Procs = 8
	}
	if p.ElemBytes < 8 {
		p.ElemBytes = 8
	}
	if p.Ops <= 0 {
		p.Ops = 16
	}
	if p.Window <= 0 {
		p.Window = 8
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// RMAResult reports the element transfer rate.
type RMAResult struct {
	Elements       int64
	SimNs          int64
	RateElemPerSec float64
	// Net holds the resilience counters (all zero on a perfect network).
	Net mpi.NetStats
}

// RMA runs the one-sided benchmark with asynchronous progress.
func RMA(p RMAParams) (RMAResult, error) {
	p = p.withDefaults()
	var res RMAResult
	if p.Op < OpPut || p.Op > OpAcc {
		return res, fmt.Errorf("rma: unknown op %d", int(p.Op))
	}
	// Paper runs 8 processes on the cluster; place 4 per node on 2 nodes.
	ppn := 4
	nodes := (p.Procs + ppn - 1) / ppn
	if p.Procs < ppn {
		ppn = p.Procs
		nodes = 1
	}
	w, err := mpi.NewWorld(mpi.Config{
		Topo:         machine.Nehalem2x4(nodes),
		Lock:         p.Lock,
		ProcsPerNode: ppn,
		Seed:         p.Seed,
		Progress:     p.Progress,
		Fault:        p.Fault,
		MaxWall:      p.MaxWall,
		Tel:          p.Tel,
	})
	if err != nil {
		return res, err
	}
	count := p.ElemBytes / 8
	rt := armci.Init(w, count*2)
	vals := make([]float64, count)
	for i := range vals {
		vals[i] = float64(i)
	}
	// Asynchronous progress on every process (incl. the origin: its own
	// progress thread is the one that monopolizes the mutex, §6.1.2).
	for r := 0; r < p.Procs; r++ {
		w.SpawnAsyncProgress(r)
	}
	var endAt int64
	w.Spawn(0, "origin", func(th *mpi.Thread) {
		hs := make([]*armci.Handle, 0, p.Window)
		for i := 0; i < p.Ops; i++ {
			for target := 1; target < p.Procs; target++ {
				// Application work between one-sided calls (ARMCI client
				// logic); this is when the progress thread takes over the
				// lock.
				th.S.Sleep(w.Cfg.Cost.AppPerMessageWork)
				var h *armci.Handle
				switch p.Op {
				case OpPut:
					h = rt.NbPut(th, target, 0, vals)
				case OpGet:
					h = rt.NbGet(th, target, 0, count)
				default:
					h = rt.NbAcc(th, target, 0, vals)
				}
				hs = append(hs, h)
				if len(hs) >= p.Window {
					rt.Fence(th, hs)
					hs = hs[:0]
				}
			}
		}
		if len(hs) > 0 {
			rt.Fence(th, hs)
		}
		endAt = th.S.Now()
	})
	if err := w.Run(); err != nil {
		return res, fmt.Errorf("rma(%v,%v,%dB): %w", p.Lock, p.Op, p.ElemBytes, err)
	}
	res.Elements = int64(p.Ops) * int64(p.Procs-1)
	res.SimNs = endAt
	if endAt > 0 {
		res.RateElemPerSec = float64(res.Elements) / (float64(endAt) / 1e9)
	}
	res.Net = w.NetStats()
	if p.Fault.Enabled() && !p.Fault.CrashesEnabled() {
		if err := w.CheckClean(); err != nil {
			return res, fmt.Errorf("rma(%v,%v,%dB): %w", p.Lock, p.Op, p.ElemBytes, err)
		}
	}
	return res, nil
}
