package mpi

// This file defines the critical-section protocol itself: mainBegin/
// mainEnd, stateBegin/stateEnd, and the csLock enter/exit helpers open
// and close sections across function boundaries by design. The lockpair
// analyzer enforces pairing at their call sites throughout the package.
//
//simcheck:allow-file lockpair protocol wrappers; pairing is enforced at call sites

import (
	"mpicontend/internal/fabric"
	"mpicontend/internal/machine"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
)

// Granularity selects the critical-section granularity of the runtime,
// after the paper's Fig. 1. Arbitration (Config.Lock) is the orthogonal
// dimension; §7 proposes studying their combination, which the
// "ablation-granularity" experiment does.
type Granularity int

const (
	// GranGlobal guards every call with one global critical section —
	// the paper's baseline and the subject of its analysis.
	GranGlobal Granularity = iota
	// GranBrief ("Brief Global", Fig. 1) shrinks the global section to
	// the queue/state updates; the rest of the main path runs outside.
	GranBrief
	// GranFine uses separate locks for the matching queues and the
	// network completion path, so injection and matching can overlap.
	GranFine
	// GranLockFree models idealized atomic queues: no mutual exclusion,
	// only per-operation atomic costs (Fig. 1's rightmost column; real
	// implementations use this only for reference counts).
	GranLockFree
)

// String names the granularity as in Fig. 1.
func (g Granularity) String() string {
	switch g {
	case GranGlobal:
		return "Global"
	case GranBrief:
		return "BriefGlobal"
	case GranFine:
		return "FineGrain"
	case GranLockFree:
		return "LockFree"
	default:
		return "Granularity(?)"
	}
}

// csLock pairs a lock with the runtime-state cache lines that follow its
// owner between cores: acquiring after a different core pays the line
// transfers.
type csLock struct {
	lock  simlock.Lock
	lines int64
	owner machine.Place

	// Telemetry plane, the lock's one observer: tel is nil when disabled
	// (the fast path is one pointer nil check); id is the registered lock
	// track, holdStart and holdClass carry the current hold between enter
	// and exit.
	tel       *telemetry.Recorder
	id        int
	holdStart int64
	holdClass uint8

	ownerValid bool // owner is set (beside holdClass, so both share a word)
}

// instrument attaches the lock to the telemetry plane under the given
// track name. No-op when tel is nil.
func (c *csLock) instrument(tel *telemetry.Recorder, name string) {
	if tel == nil {
		return
	}
	c.tel = tel
	c.id = tel.RegisterLock(name)
}

// telClass maps the simlock scheduling class onto the telemetry alphabet.
func telClass(cl simlock.Class) uint8 {
	if cl == simlock.Low {
		return telemetry.ClassLow
	}
	return telemetry.ClassHigh
}

// enter acquires the section for th. It is the one site where requests
// and grants are observed (the lock models carry no hooks): the recorder
// gets the request before Acquire and the grant, with the process's
// dangling-request count for §4.4, after it.
func (c *csLock) enter(th *Thread, cl simlock.Class) {
	var from int64
	if c.tel != nil {
		from = th.S.Now()
		c.tel.LockRequest(c.id, th.S.ID(), th.lctx.Place, from)
	}
	//simcheck:allow hotalloc lock layer: the futex mutex and the queue lock are checked from their own hotpath roots; the cohort lock builds a socket's lock on first use
	c.lock.Acquire(&th.lctx, cl)
	if c.tel != nil {
		now := th.S.Now()
		c.tel.LockGrant(c.id, th.S.ID(), telClass(cl), th.lctx.Place, from, now, th.P.danglingNow)
		c.holdStart = now
		c.holdClass = telClass(cl)
		th.holdUseful = false
	}
	if th.errPath {
		th.P.w.ft.errPathLocks++
	}
	if at := th.P.lockCrashAt; at > 0 && th.S.Now() >= at && !th.P.crashed {
		// Scheduled crash-on-lock-hold (fault.CrashSpec.OnLockHold): the
		// process dies right here, holding the lock it just won — the
		// section is never released and every local waiter is stranded.
		th.P.w.killRank(th.P.Rank)
		panic(rankCrashed{})
	}
	cost := th.cost()
	if c.ownerValid && c.owner != th.lctx.Place && c.lines > 0 {
		th.S.Sleep(c.lines * cost.Transfer(c.owner, th.lctx.Place))
	}
	c.owner = th.lctx.Place
	c.ownerValid = true
	if pl := th.P.w.plane; pl != nil {
		// Fault plane: lock-holder preemption. The stall lands just after
		// acquisition, so every waiter pays for it — the pathology the
		// critical-section arbitration must absorb.
		if stall := pl.PreemptStall(); stall > 0 {
			th.S.Sleep(stall)
		}
	}
}

func (c *csLock) exit(th *Thread, cl simlock.Class) {
	if c.tel != nil {
		c.tel.LockHold(c.id, th.S.ID(), c.holdClass, th.holdUseful,
			th.lctx.Place.Socket, th.lctx.Place.Core, c.holdStart, th.S.Now())
	}
	//simcheck:allow hotalloc lock layer, as in enter
	c.lock.Release(&th.lctx, cl)
}

// briefCSWork is the slice of the main path that stays inside the critical
// section under GranBrief/GranFine (the queue update itself).
const briefCSWork = 60

// section returns the critical section that guards shard v's queues and
// request state under the configured granularity: the shard's section
// (Global, Brief), the matching-queue lock (Fine), or nil (LockFree, where
// only atomic costs are charged). Sharded procs run GranGlobal only
// (enforced at NewWorld), so the sub-CS granularities always see shard 0.
func (p *Proc) section(v int) *csLock {
	switch p.w.Cfg.Granularity {
	case GranFine:
		return &p.queueCS
	case GranLockFree:
		return nil
	default:
		return &p.vcis[v].cs
	}
}

// mainBegin opens the main-path section of an MPI call mapped to shard v,
// charging the main-path work split according to the granularity. Callers
// must pair it with mainEnd.
func (th *Thread) mainBegin(v int) {
	th.checkCrashed()
	th.checkThreadLevel()
	cost := th.cost()
	p := th.P
	cs := p.section(v)
	if cs == nil {
		th.S.Sleep(cost.MainPathWork + 2*cost.AtomicOpCost)
		return
	}
	work := cost.MainPathWork
	if p.w.Cfg.Granularity != GranGlobal {
		// Brief Global and Fine run all but the queue update outside.
		th.S.Sleep(cost.MainPathWork - briefCSWork)
		work = briefCSWork
	}
	cs.enter(th, simlock.High)
	th.S.Sleep(work)
}

// mainEnd closes the section opened by mainBegin(v).
func (th *Thread) mainEnd(v int) { th.stateEnd(v, simlock.High) }

// stateBegin opens a short request-state section on shard v (completion
// checks, frees) without charging main-path work.
func (th *Thread) stateBegin(v int, cl simlock.Class) {
	th.checkCrashed()
	th.checkThreadLevel()
	if cs := th.P.section(v); cs != nil {
		cs.enter(th, cl)
	} else {
		th.S.Sleep(th.cost().AtomicOpCost)
	}
}

// stateEnd closes a stateBegin(v, cl) section.
func (th *Thread) stateEnd(v int, cl simlock.Class) {
	if cs := th.P.section(v); cs != nil {
		cs.exit(th, cl)
	}
	th.exitThreadLevel()
}

// progressRound runs one progress-engine iteration on shard v with the
// granularity's locking: the whole poll holds the shard's section (the
// paper's progress loop), except under Fine, where the completion queue
// is drained under the NIC lock and each event is handled under the queue
// lock, and under LockFree, where the poll pays atomic costs instead. cl
// is the scheduling class used for the section acquisition (Low in
// blocking progress loops, High in MPI_Test). If post is non-nil it runs
// under request-state protection — inside the same critical-section hold
// where the granularity allows — letting callers check and free requests
// as MPICH's progress loop does.
func (th *Thread) progressRound(v int, cl simlock.Class, post func()) {
	th.checkCrashed()
	th.checkThreadLevel()
	defer th.exitThreadLevel()
	p := th.P
	switch p.w.Cfg.Granularity {
	case GranFine:
		th.fineRound(v, cl, post)
	case GranLockFree:
		atomic := th.cost().AtomicOpCost
		p.pollShard(th, v, atomic)
		if post != nil {
			th.S.Sleep(atomic)
			post()
		}
	default:
		cs := &p.vcis[v].cs
		cs.enter(th, cl)
		p.pollShard(th, v, 0)
		if post != nil {
			post()
		}
		cs.exit(th, cl)
	}
}

// fineRound is progressRound under GranFine: the completion queue is
// drained under the NIC lock, then each event is handled under the queue
// lock.
func (th *Thread) fineRound(v int, cl simlock.Class, post func()) {
	p := th.P
	cost := th.cost()
	sh := p.vcis[v]
	p.nicCS.enter(th, cl)
	var pollFrom int64
	if p.w.tel != nil {
		pollFrom = th.S.Now()
	}
	th.S.Sleep(cost.ProgressPollWork)
	p.Polls++
	var pkts [maxEventsPerPoll]*fabric.Packet
	n := 0
	for sh.cq.len() > 0 && n < maxEventsPerPoll {
		pkts[n] = sh.cq.pop()
		n++
	}
	th.holdUseful = n > 0
	if p.w.tel != nil {
		p.w.tel.Poll(th.S.ID(), pollFrom, th.S.Now(), n)
	}
	p.nicCS.exit(th, cl)
	if n == 0 {
		th.pollBackoff++
	} else {
		th.pollBackoff = 0
	}
	for _, pkt := range pkts[:n] {
		p.queueCS.enter(th, cl)
		th.S.Sleep(cost.ProgressHandleWork)
		p.handlePacket(th, pkt)
		if p.rel == nil {
			p.w.Fab.FreePacket(pkt) // see pollShard: fault-free packets die here
		}
		p.queueCS.exit(th, cl)
	}
	if post != nil {
		p.queueCS.enter(th, cl)
		post()
		p.queueCS.exit(th, cl)
	}
}
