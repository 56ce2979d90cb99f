package workloads

import (
	"fmt"

	"mpicontend/internal/fault"
	"mpicontend/internal/machine"
	"mpicontend/internal/mpi"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
)

// RecoveryStrategy selects how survivors continue after a rank failure.
type RecoveryStrategy int

const (
	// RecoverShrink is shrink-and-redistribute: survivors revoke the
	// communicator, shrink to a new one, agree on the furthest iteration
	// reached, redistribute the dead rank's domain share and continue
	// forward (the dead rank's uncheckpointed contributions are lost).
	RecoverShrink RecoveryStrategy = iota
	// RecoverCheckpoint is in-memory checkpoint/restart: every rank saves
	// (iteration, state) every CkptInterval iterations; after a failure
	// survivors shrink, agree on the newest globally consistent checkpoint
	// line (min over last checkpoints) and roll back to it, the lowest
	// survivor adopting the dead ranks' checkpointed state.
	RecoverCheckpoint
)

// String names the strategy.
func (s RecoveryStrategy) String() string {
	switch s {
	case RecoverShrink:
		return "shrink"
	case RecoverCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("RecoveryStrategy(%d)", int(s))
	}
}

// RecoveryKernel selects the communication structure the failure hits.
type RecoveryKernel int

const (
	// KernelRing is a stencil-style halo exchange: each iteration trades
	// messages with the two ring neighbours, so a failure is observed
	// directly only by the victim's neighbours and reaches everyone else
	// via the revocation flood.
	KernelRing RecoveryKernel = iota
	// KernelN2N exchanges with every peer each iteration, so every rank
	// observes the failure directly within one detection latency.
	KernelN2N
)

// String names the kernel.
func (k RecoveryKernel) String() string {
	switch k {
	case KernelRing:
		return "ring"
	default:
		return "n2n"
	}
}

// Tags of the recovery workload's message streams.
const (
	tagHaloRight = 11 // data flowing to the right neighbour
	tagHaloLeft  = 12 // data flowing to the left neighbour
	tagRedist    = 13 // domain redistribution after a shrink
	tagN2N       = 14
)

// Fixed shape of the recovery kernel.
const (
	recoveryMsgBytes    = 1024      // per-neighbour halo (or per-peer) message size
	recoveryComputeNs   = 2000      // per-iteration computation time
	recoveryDomainBytes = 256 << 10 // global domain redistributed after a shrink
)

// RecoveryParams configures the fault-tolerant iterative workload.
type RecoveryParams struct {
	Lock simlock.Kind
	// Procs is the number of ranks (default 4).
	Procs int
	// ProcsPerNode packs ranks onto nodes (default 1; >1 makes Node crash
	// specs kill co-located ranks together).
	ProcsPerNode int
	// Iters is the iteration count each rank must complete (default 64).
	Iters int
	// Strategy selects the recovery scheme (default RecoverShrink).
	Strategy RecoveryStrategy
	// Kernel selects the communication structure (default KernelRing).
	Kernel RecoveryKernel
	// CkptInterval is the checkpoint period in iterations (default 8;
	// RecoverCheckpoint only).
	CkptInterval int
	// Fault configures the fault plane; Fault.Crashes is the failure
	// schedule this workload exists to survive.
	Fault fault.Config
	// MaxWall bounds real run time in wall-clock ns (0 = unlimited).
	MaxWall int64
	Seed    uint64
	// Tel attaches the telemetry plane (nil = disabled, zero overhead).
	Tel *telemetry.Recorder
}

func (p RecoveryParams) withDefaults() RecoveryParams {
	if p.Procs <= 0 {
		p.Procs = 4
	}
	if p.Iters <= 0 {
		p.Iters = 64
	}
	if p.CkptInterval <= 0 {
		p.CkptInterval = 8
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// RecoveryResult aggregates the run.
type RecoveryResult struct {
	// SimNs is the completion time of the last surviving rank.
	SimNs int64
	// Survivors is the number of ranks alive at the end.
	Survivors int
	// Checksum is the agreed final reduction over the survivors' state —
	// the determinism witness (same seed ⇒ same checksum, at any -jobs).
	Checksum int64
	// RecoverNs is the worst per-rank total time spent inside recovery
	// (revoke + shrink + agree + redistribution or rollback).
	RecoverNs int64
	// Recoveries counts recovery rounds entered across all ranks.
	Recoveries int64
	// Recovery holds the runtime's fault-tolerance counters (detection
	// latency, error-path lock acquisitions, primitive counts).
	Recovery mpi.RecoveryStats
	// Net holds the resilience counters.
	Net mpi.NetStats
}

// ckptEntry is one in-memory checkpoint: the state of one rank at an
// iteration boundary.
type ckptEntry struct {
	iter int
	sum  int64
}

// lastCkpt returns the newest checkpoint.
func lastCkpt(h []ckptEntry) ckptEntry { return h[len(h)-1] }

// ckptAt returns the checkpoint taken at exactly iteration it. The caller
// guarantees existence: checkpoints are taken at fixed intervals and it is
// an agreed minimum over ranks' newest checkpoints.
func ckptAt(h []ckptEntry, it int) ckptEntry {
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].iter == it {
			return h[i]
		}
	}
	panic(fmt.Sprintf("workloads: no checkpoint at iteration %d", it))
}

// ckptSumAtOrBefore returns the newest checkpointed sum at or before
// iteration it, or 0 when none exists (a rank that died before its first
// checkpoint contributed nothing durable).
func ckptSumAtOrBefore(h []ckptEntry, it int) int64 {
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].iter <= it {
			return h[i].sum
		}
	}
	return 0
}

// Recovery runs the fault-tolerant iterative workload: an iterative
// exchange-and-compute kernel that survives the configured crash schedule
// with the selected recovery strategy and reports what the recovery cost.
func Recovery(p RecoveryParams) (RecoveryResult, error) {
	p = p.withDefaults()
	var res RecoveryResult
	if p.Strategy != RecoverShrink && p.Strategy != RecoverCheckpoint {
		return res, fmt.Errorf("recovery: unknown strategy %d", int(p.Strategy))
	}
	ppn := p.ProcsPerNode
	if ppn <= 0 {
		ppn = 1
	}
	nodes := (p.Procs + ppn - 1) / ppn
	p.Procs = nodes * ppn // the world always fills whole nodes
	w, err := mpi.NewWorld(mpi.Config{
		Topo:         machine.Nehalem2x4(nodes),
		ProcsPerNode: ppn,
		Lock:         p.Lock,
		Seed:         p.Seed,
		Fault:        p.Fault,
		MaxWall:      p.MaxWall,
		Tel:          p.Tel,
	})
	if err != nil {
		return res, err
	}
	w.SetErrhandler(mpi.ErrorsReturn)
	c := w.Comm()

	// World-level shared state: the sim is cooperative and deterministic,
	// so plain slices indexed by world rank are race-free.
	store := make([][]ckptEntry, p.Procs) // in-memory checkpoint store
	recoverNs := make([]int64, p.Procs)   // per-rank time inside recovery
	recoveries := make([]int64, p.Procs)  // per-rank recovery rounds
	finals := make([]int64, p.Procs)      // per-rank final reduction value
	finished := make([]bool, p.Procs)
	var endAt int64

	for rank := 0; rank < p.Procs; rank++ {
		rank := rank
		// Every rank runs an asynchronous progress thread, so recovery
		// traffic contends with the paper's §6.1.2 lock-monopolizing
		// daemon — the regime the experiment studies.
		w.SpawnAsyncProgress(rank)
		w.Spawn(rank, "recovery", func(th *mpi.Thread) {
			runRecoveryRank(th, c, p, rank, store, recoverNs, recoveries, finals)
			finished[rank] = true
			if th.S.Now() > endAt {
				endAt = th.S.Now()
			}
		})
	}
	if err := w.Run(); err != nil {
		return res, fmt.Errorf("recovery(%v,%v,%v): %w", p.Lock, p.Strategy, p.Kernel, err)
	}
	res.SimNs = endAt
	res.Recovery = w.Recovery()
	crashed := make(map[int]bool, len(res.Recovery.Crashed))
	for _, r := range res.Recovery.Crashed {
		crashed[r] = true
	}
	for rank := 0; rank < p.Procs; rank++ {
		if crashed[rank] {
			continue
		}
		res.Survivors++
		if !finished[rank] {
			return res, fmt.Errorf("recovery(%v,%v,%v): surviving rank %d never finished",
				p.Lock, p.Strategy, p.Kernel, rank)
		}
		res.Checksum = finals[rank] // all survivors agree; keep the last
		if recoverNs[rank] > res.RecoverNs {
			res.RecoverNs = recoverNs[rank]
		}
		res.Recoveries += recoveries[rank]
	}
	res.Net = w.NetStats()
	if p.Fault.Enabled() && !p.Fault.CrashesEnabled() {
		// Crashy runs leave residue by design (the dead rank's queues); the
		// delivery invariants only hold for crash-free scenarios.
		if err := w.CheckClean(); err != nil {
			return res, fmt.Errorf("recovery(%v,%v,%v): %w", p.Lock, p.Strategy, p.Kernel, err)
		}
	}
	return res, nil
}

// runRecoveryRank drives one rank's kernel thread: iterate the exchange-
// and-compute loop, and on any failure run the recovery protocol and
// resume. The victim ranks run the same code until the scheduled crash
// unwinds them.
func runRecoveryRank(th *mpi.Thread, c *mpi.Comm, p RecoveryParams, rank int,
	store [][]ckptEntry, recoverNs, recoveries, finals []int64) {
	cur := c
	iter := 0
	var localSum int64
	// orphan is the adopted state of checkpointed-but-dead ranks; it is
	// recomputed (not accumulated) on every checkpoint recovery and added
	// to the final reduction. Identical on every survivor.
	var orphan int64

	// phase runs one iteration's communication on the current comm.
	phase := func() error {
		me := cur.Rank(th)
		n := cur.Size()
		if n <= 1 {
			return nil
		}
		switch p.Kernel {
		case KernelRing:
			left := (me - 1 + n) % n
			right := (me + 1) % n
			rl := th.Irecv(cur, left, tagHaloRight)
			rr := th.Irecv(cur, right, tagHaloLeft)
			sr := th.Isend(cur, right, tagHaloRight, recoveryMsgBytes, nil)
			sl := th.Isend(cur, left, tagHaloLeft, recoveryMsgBytes, nil)
			return th.Waitall([]*mpi.Request{rl, rr, sr, sl})
		default: // KernelN2N
			rs := make([]*mpi.Request, 0, 2*(n-1))
			for q := 0; q < n; q++ {
				if q == me {
					continue
				}
				rs = append(rs, th.Irecv(cur, q, tagN2N))
			}
			for q := 0; q < n; q++ {
				if q == me {
					continue
				}
				rs = append(rs, th.Isend(cur, q, tagN2N, recoveryMsgBytes, nil))
			}
			return th.Waitall(rs)
		}
	}

	// recover runs one recovery round: revoke the broken communicator,
	// shrink to the survivors, agree on where to resume, and either
	// redistribute (shrink strategy) or roll back (checkpoint strategy).
	// It loops until a round completes without a new failure interrupting
	// it; detection latency bounds every retry.
	recoverRound := func() {
		t0 := th.S.Now()
		recoveries[rank]++
		th.BeginErrPath()
		defer th.EndErrPath()
		for {
			th.Revoke(cur)
			sh, err := th.Shrink(cur)
			if err != nil {
				continue
			}
			cur = sh
			if p.Strategy == RecoverCheckpoint {
				agreed, err := th.AllreduceMinErr(cur, int64(lastCkpt(store[rank]).iter))
				if err != nil {
					continue
				}
				e := ckptAt(store[rank], int(agreed))
				iter, localSum = e.iter, e.sum
				// Adopt the checkpointed state of every rank the shrink
				// excluded (partner-checkpointing stand-in: the in-memory
				// store is reachable even though its owner is not). Every
				// survivor recomputes the same value from the same shrunk
				// membership and agreed iteration — recomputed from
				// scratch each round, so repeated recoveries stay
				// idempotent.
				orphan = 0
				member := make(map[int]bool, cur.Size())
				for _, wr := range cur.WorldRanks() {
					member[wr] = true
				}
				for d := 0; d < p.Procs; d++ {
					if !member[d] {
						orphan += ckptSumAtOrBefore(store[d], int(agreed))
					}
				}
			} else {
				agreed, err := th.AllreduceMaxErr(cur, int64(iter))
				if err != nil {
					continue
				}
				iter = int(agreed)
				// Redistribute the domain: each survivor adopts its share
				// of the lost partition from its ring predecessor.
				if n := cur.Size(); n > 1 {
					me := cur.Rank(th)
					share := recoveryDomainBytes / int64(n)
					rr := th.Irecv(cur, (me-1+n)%n, tagRedist)
					sr := th.Isend(cur, (me+1)%n, tagRedist, share, nil)
					if err := th.Waitall([]*mpi.Request{sr, rr}); err != nil {
						continue
					}
				}
			}
			break
		}
		recoverNs[rank] += th.S.Now() - t0
	}

	for iter < p.Iters {
		if p.Strategy == RecoverCheckpoint && iter%p.CkptInterval == 0 {
			h := store[rank]
			if len(h) == 0 || lastCkpt(h).iter != iter {
				store[rank] = append(h, ckptEntry{iter: iter, sum: localSum})
			}
		}
		if err := phase(); err != nil {
			recoverRound()
			continue
		}
		th.S.Sleep(recoveryComputeNs)
		localSum += int64(iter)*7 + int64(rank) + 1
		iter++
	}
	for {
		v, err := th.AllreduceSumErr(cur, localSum)
		if err != nil {
			recoverRound()
			continue
		}
		finals[rank] = v + orphan
		break
	}
}
