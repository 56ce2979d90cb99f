// Package mpi implements a simulated MPICH-like runtime with
// MPI_THREAD_MULTIPLE support: per-process global critical sections with
// pluggable arbitration (mutex / ticket / priority, per the paper),
// nonblocking two-sided communication with posted/unexpected queues and tag
// matching, eager and rendezvous protocols over the fabric model, one-sided
// RMA windows with an optional asynchronous progress thread, and small
// collectives built on point-to-point.
//
// The runtime reproduces the critical-section structure of the paper's
// Fig. 6a: every call enters the global CS on its main path (high priority)
// and blocking calls then iterate the progress loop, releasing and
// re-acquiring the CS (low priority) around each poll — the yield window in
// which lock arbitration decides who advances.
//
// Three progress modes share that machinery (docs/PROGRESS.md). The
// default, polling, is the paper's shape above. Strong progress moves the
// progress loop onto a dedicated daemon simthread per VCI shard so blocked
// application threads park instead of polling; continuation mode adds
// completion-time callbacks (Request.OnComplete) and CompletionQueue
// draining on top, removing the per-request wait loop entirely.
//
// mpi is part of the deterministic core (docs/ARCHITECTURE.md); the
// lockpair analyzer enforces its critical-section discipline.
package mpi

import (
	"fmt"
	"time"

	"mpicontend/internal/fabric"
	"mpicontend/internal/fault"
	"mpicontend/internal/machine"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/sim"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
)

// Wildcards for receive matching.
const (
	// AnySource matches messages from every rank.
	AnySource = -1
	// AnyTag matches every tag.
	AnyTag = -1
)

// collCtx is the communication context reserved for internal collectives,
// disjoint from every user communicator context (which are >= 0).
const collCtx = -2

// Config describes a simulated MPI world.
type Config struct {
	// Topo is the cluster shape. Required.
	Topo machine.Topology
	// Cost is the timing model; zero value means machine.Default().
	Cost machine.CostModel
	// Lock selects the critical-section arbitration (the paper's subject).
	Lock simlock.Kind
	// ThreadLevel is the requested MPI thread-support level (§2.1).
	// Levels below MPI_THREAD_MULTIPLE take no locks at all — the
	// runtime instead verifies the usage contract and panics on
	// violations.
	ThreadLevel ThreadLevel
	// Granularity selects the critical-section granularity (Fig. 1);
	// default GranGlobal, the paper's baseline.
	Granularity Granularity
	// Binding places process threads on cores (compact/scatter).
	Binding machine.Binding
	// ProcsPerNode defaults to 1.
	ProcsPerNode int
	// Seed drives all randomness (CAS jitter etc.).
	Seed uint64
	// OnGrant optionally returns a grant observer for the given rank's
	// critical-section lock (used by the §4.3/§4.4 analyses).
	OnGrant func(rank int) simlock.GrantFunc
	// MaxEvents aborts the simulation with an error after this many
	// events — a guard that turns protocol deadlocks (which would spin
	// in virtual time forever) into diagnosable failures. Zero selects a
	// generous default.
	MaxEvents uint64
	// SelectiveWakeup enables the paper's §9 future-work design: threads
	// blocked in the progress loop park after an empty poll and are woken
	// by events (message arrival, request completion) instead of
	// busy-spinning through the critical section. This removes the wasted
	// lock acquisitions that the mutex otherwise monopolizes.
	SelectiveWakeup bool
	// Fault configures the deterministic fault-injection plane. The zero
	// value is a perfect network and the runtime behaves exactly as
	// before (no sequence numbers, no ACK traffic, no timers). Any
	// enabled fault switches the runtime to its reliable transport.
	Fault fault.Config
	// MaxWall bounds the run's real (wall-clock) time in nanoseconds of
	// wall time (see sim.Engine.MaxWall); zero means no limit. Chaos
	// soaks set it so a runaway scenario cannot hang CI.
	MaxWall int64
	// OnFaultEvent, when set, observes resilience events ("retransmit",
	// "giveup", "preempt") at their virtual time on the given rank —
	// used to pin marks onto lock-ownership timelines.
	OnFaultEvent func(event string, at int64, rank int)
	// VCIs is the number of virtual communication interfaces per process:
	// independent runtime shards (matching queues, completion queue,
	// request pool, transport flows), each with its own critical-section
	// lock of the configured Kind. 0 or 1 gives one shard, whose section
	// is the paper's global critical section; every count runs the same
	// code path. Four rules depend on whether a process has more than one
	// shard (Proc.sharded): the shared-NIC injection lock, cross-shard
	// wildcard receives, the polling wait family's pre-check, and
	// driver-level Revoke consumption. More than one VCI requires
	// GranGlobal (sub-CS granularities and sharding answer the same
	// question at different layers and do not compose).
	VCIs int
	// VCIPolicy selects how operations map onto VCIs (per-comm,
	// per-tag-hash, explicit hint); see internal/mpi/vci.
	VCIPolicy vci.Policy
	// Progress selects who drives the progress engine (progressd.go):
	// ProgressPolling (default, the paper's poll-from-Wait shape: blocked
	// threads iterate the progress loop of their requests' shards),
	// ProgressStrong (a dedicated progress daemon per VCI shard; blocked
	// threads park), or ProgressContinuation (strong progress plus
	// OnComplete callbacks and CompletionQueue draining). Non-polling
	// modes require MPI_THREAD_MULTIPLE and GranGlobal.
	Progress ProgressMode
	// Tel, when non-nil, attaches the telemetry plane: MPI-call spans,
	// lock wait/hold spans per priority class, progress-poll spans,
	// request-lifecycle gauges, and fabric flight spans all record
	// against the sim clock. Telemetry is purely observational — it never
	// schedules events or advances time — so enabling it cannot change
	// simulation results.
	Tel *telemetry.Recorder
}

// World is a running simulated cluster with an MPI runtime on each process.
type World struct {
	Cfg   Config
	Eng   *sim.Engine
	Fab   *fabric.Fabric
	Procs []*Proc

	tel *telemetry.Recorder // nil when telemetry is disabled

	wins        []*Win
	danglingNow int
	appThreads  int  // live non-daemon threads; world stops at zero
	nextCtx     int  // user context ids handed out by Dup/Split
	progressd   bool // progress daemons started (strong/continuation modes)

	// Fault/resilience plane (nil and zero on a perfect network).
	plane      *fault.Plane
	errhandler Errhandler
	stallErr   error // set by the progress watchdog
	// ft is the fault-tolerance plane (nil without a crash schedule).
	ft *ftWorld

	// Activity counters the watchdog samples.
	deliveredTotal   int64
	completedTotal   int64
	retransmitsTotal int64
	requestFailures  int64
	watchdogStalls   int64

	// partStats are the partitioned-communication counters
	// (partitioned.go); surfaced through World.PartStats.
	partStats PartStats
}

// NewWorld builds the world: engine, fabric, and one Proc per rank with its
// own global critical-section lock.
func NewWorld(cfg Config) (*World, error) {
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.ProcsPerNode <= 0 {
		cfg.ProcsPerNode = 1
	}
	zero := machine.CostModel{}
	if cfg.Cost == zero {
		cfg.Cost = machine.Default()
	}
	if cfg.ProcsPerNode > cfg.Topo.CoresPerNode() {
		return nil, fmt.Errorf("mpi: %d processes per node exceed %d cores",
			cfg.ProcsPerNode, cfg.Topo.CoresPerNode())
	}
	switch {
	case !cfg.Lock.Valid():
		return nil, fmt.Errorf("mpi: unknown lock kind %d", int(cfg.Lock))
	case cfg.Granularity < GranGlobal || cfg.Granularity > GranLockFree:
		return nil, fmt.Errorf("mpi: unknown granularity %d", int(cfg.Granularity))
	case !cfg.Binding.Valid():
		return nil, fmt.Errorf("mpi: unknown binding %d", int(cfg.Binding))
	case cfg.Progress < ProgressPolling || cfg.Progress > ProgressContinuation:
		return nil, fmt.Errorf("mpi: unknown progress mode %d", int(cfg.Progress))
	}
	if err := (vci.Config{N: cfg.VCIs, Policy: cfg.VCIPolicy}).Validate(); err != nil {
		return nil, err
	}
	if cfg.VCIs < 1 {
		cfg.VCIs = 1
	}
	if cfg.VCIs > 1 {
		if cfg.Granularity != GranGlobal {
			return nil, fmt.Errorf("mpi: %d VCIs require GranGlobal, got %v "+
				"(sub-CS granularity and VCI sharding do not compose)",
				cfg.VCIs, cfg.Granularity)
		}
		if cfg.ThreadLevel.lockless() {
			return nil, fmt.Errorf("mpi: %d VCIs require MPI_THREAD_MULTIPLE "+
				"(sharding a lockless runtime is meaningless)", cfg.VCIs)
		}
	}
	if cfg.Progress != ProgressPolling {
		if cfg.Granularity != GranGlobal {
			return nil, fmt.Errorf("mpi: %v progress requires GranGlobal, got %v "+
				"(the daemons drive whole-shard critical sections)",
				cfg.Progress, cfg.Granularity)
		}
		if cfg.ThreadLevel.lockless() {
			return nil, fmt.Errorf("mpi: %v progress requires MPI_THREAD_MULTIPLE "+
				"(progress daemons share runtime state with application threads)",
				cfg.Progress)
		}
	}
	if cfg.ThreadLevel.lockless() {
		// Below MPI_THREAD_MULTIPLE the runtime is not thread safe and
		// takes no locks (that is the point of the levels, §2.1).
		cfg.Lock = simlock.KindNone
	}
	w := &World{
		Cfg: cfg,
		Eng: sim.NewEngine(cfg.Seed),
		tel: cfg.Tel,
	}
	if w.tel != nil {
		w.Eng.OnThreadState = func(t *sim.Thread, s sim.ThreadState) {
			w.tel.ThreadState(t.ID(), w.Eng.Now(), s.String())
		}
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 500_000_000
	}
	w.Eng.MaxEvents = cfg.MaxEvents
	if cfg.MaxWall > 0 {
		w.Eng.MaxWall = time.Duration(cfg.MaxWall)
	}
	w.Fab = fabric.New(w.Eng, cfg.Cost)
	w.Fab.Tel = cfg.Tel
	w.plane = fault.New(cfg.Fault, cfg.Seed)
	w.Fab.InjectFaults(w.plane)
	n := cfg.Topo.Nodes * cfg.ProcsPerNode
	coresPerProc := cfg.Topo.CoresPerNode() / cfg.ProcsPerNode
	for rank := 0; rank < n; rank++ {
		node := rank / cfg.ProcsPerNode
		p := &Proc{
			w:         w,
			Rank:      rank,
			Node:      node,
			firstCore: (rank % cfg.ProcsPerNode) * coresPerProc,
			coreCount: coresPerProc,
			sharded:   cfg.VCIs > 1,
		}
		lcfg := &simlock.Config{Eng: w.Eng, Cost: cfg.Cost}
		if cfg.OnGrant != nil {
			lcfg.OnGrant = cfg.OnGrant(rank)
		}
		for v := 0; v < cfg.VCIs; v++ {
			sh := &vciShard{idx: v}
			sh.cs = csLock{lock: simlock.New(cfg.Lock, lcfg), lines: cfg.Cost.CSStateLines}
			name := fmt.Sprintf("cs[r%d]", rank)
			if cfg.VCIs > 1 {
				name = fmt.Sprintf("cs[r%d.v%d]", rank, v)
			}
			sh.cs.instrument(w.tel, name)
			p.vcis = append(p.vcis, sh)
		}
		if cfg.VCIs > 1 {
			// The shared-NIC injection point: the one arbitration site the
			// sharding cannot remove (all VCIs funnel into one physical NIC).
			p.nicVCI = csLock{lock: simlock.New(cfg.Lock, lcfg), lines: cfg.Cost.CSStateLines / 2}
			p.nicVCI.instrument(w.tel, fmt.Sprintf("nic[r%d]", rank))
		}
		if cfg.Granularity == GranFine {
			sub := &simlock.Config{Eng: w.Eng, Cost: cfg.Cost}
			p.queueCS = csLock{lock: simlock.New(cfg.Lock, sub), lines: cfg.Cost.CSStateLines / 2}
			p.queueCS.instrument(w.tel, fmt.Sprintf("queue[r%d]", rank))
			p.nicCS = csLock{lock: simlock.New(cfg.Lock, sub), lines: cfg.Cost.CSStateLines / 2}
			p.nicCS.instrument(w.tel, fmt.Sprintf("nic[r%d]", rank))
		}
		p.ep = w.Fab.Attach(rank, node, p.onPacket)
		if w.plane != nil {
			p.rel = newRelState(p, w.plane)
		}
		w.Procs = append(w.Procs, p)
	}
	if w.plane != nil {
		if iv := w.plane.Config().WatchdogNs; iv > 0 {
			w.startWatchdog(iv)
		}
		if cfg.Fault.CrashesEnabled() {
			w.setupFT()
		}
	}
	return w, nil
}

// NumProcs returns the number of ranks.
func (w *World) NumProcs() int { return len(w.Procs) }

// Proc returns the process with the given rank.
func (w *World) Proc(rank int) *Proc { return w.Procs[rank] }

// Comm returns the world communicator.
func (w *World) Comm() *Comm { return &Comm{w: w, ctx: 0, size: len(w.Procs)} }

// Dangling/outstanding accounting uses world ranks throughout; Comm only
// translates at the API boundary.

// DanglingNow returns the current number of completed-but-not-freed
// requests across the world (the paper's §4.4 metric source).
func (w *World) DanglingNow() int { return w.danglingNow }

// Run executes the simulation until all non-daemon threads finish. A
// progress-watchdog stall takes precedence over the engine's own result,
// since the watchdog stops the engine cleanly to attach its report. Under
// strong/continuation progress the per-shard daemons spawn here, after
// the application threads, so app-thread core placement is unchanged
// across modes.
func (w *World) Run() error {
	w.startProgressDaemons()
	err := w.Eng.Run()
	if w.stallErr != nil {
		return w.stallErr
	}
	return err
}

// FaultPlane returns the active fault plane (nil on a perfect network).
func (w *World) FaultPlane() *fault.Plane { return w.plane }

// faultEvent forwards a resilience event to the configured observer.
func (w *World) faultEvent(event string, rank int) {
	if w.Cfg.OnFaultEvent != nil {
		w.Cfg.OnFaultEvent(event, w.Eng.Now(), rank)
	}
}

// Comm is a communicator: a matching context over a group of processes.
// The world communicator has a nil ranks slice (identity mapping); Dup and
// Split create communicators with explicit groups.
type Comm struct {
	w    *World
	ctx  int
	size int
	// ranks maps comm-local rank -> world rank; nil means identity.
	ranks []int
	// errhandler overrides the world's when not ErrhandlerInherit (the
	// zero value), so new communicators inherit by default.
	errhandler Errhandler
	// vcihint is the explicit VCI assignment plus one (0 = unset); see
	// SetVCI/vciHint.
	vcihint int
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// Ctx returns the matching context id (exported for tests).
func (c *Comm) Ctx() int { return c.ctx }

// Proc is one MPI process: a rank with its own runtime state and global
// critical section.
type Proc struct {
	w         *World
	Rank      int
	Node      int
	firstCore int
	coreCount int

	// vcis are the proc's virtual communication interfaces (always >= 1).
	// Every call runs on its shard's section; with one shard, shard 0's
	// section is the global critical section (Fig. 6a) and holds all
	// queues.
	vcis []*vciShard
	// sharded is set when the proc has more than one shard. It is read
	// only by the four rules that depend on the shard count: sendShard,
	// vciWildcard, pollPrecheck and onPacket's Revoke consumption.
	sharded bool
	nicVCI  csLock // shared-NIC injection lock (sharded procs only)
	queueCS csLock // matching-queue lock (GranFine)
	nicCS   csLock // completion-queue lock (GranFine)
	ep      *fabric.Endpoint
	rel     *relState // reliable transport; nil on a perfect network

	// Fault-tolerance plane (ft.go); all zero without a crash schedule.
	ft          *ftProc
	crashed     bool  // fail-stopped: threads unwind at the next checkpoint
	lockCrashAt int64 // > 0: crash at the first CS acquisition at/after this time
	liveApp     int   // live application threads (for crash accounting)

	activity    sim.WaitQueue // parked background pollers
	nthreads    int
	outstanding int // active requests (incl. RMA ops) not yet freed
	danglingNow int // completed-but-not-freed requests of this proc
	// completeSeq counts request completions on this proc; event-driven
	// waiters snapshot it before parking so a completion between their
	// checked state section and the park is never lost (progressd.go).
	completeSeq int64

	// Thread-level contract tracking (ThreadSingle/Funneled/Serialized).
	mainThread *Thread
	inCall     *Thread

	// Stats
	UnexpectedHits int64 // receives satisfied from the unexpected queue
	PostedHits     int64 // arrivals matched against posted receives
	Polls          int64
}

// Lock exposes the process's global critical-section lock (for
// instrumentation). In a sharded world this is VCI 0's lock.
func (p *Proc) Lock() simlock.Lock { return p.vcis[0].cs.lock }

// Cost returns the world's timing model.
func (p *Proc) Cost() machine.CostModel { return p.w.Cfg.Cost }

// Rand returns the world's deterministic random stream (for jittered
// application-side delays).
func (p *Proc) Rand() *sim.Rand { return p.w.Eng.Rand() }

// Outstanding returns the number of live (not yet freed) requests.
func (p *Proc) Outstanding() int { return p.outstanding }

// DanglingNow returns this process's completed-but-not-freed request count.
func (p *Proc) DanglingNow() int { return p.danglingNow }

// onPacket is the fabric delivery handler (engine context). Under the
// reliable transport, control traffic (ACK/NACK), duplicates and
// out-of-order arrivals are consumed here at "driver" level; the protocol
// layer only ever sees each packet once, in per-flow FIFO order.
func (p *Proc) onPacket(pkt *fabric.Packet) {
	if p.ft != nil {
		// Any arrival is proof of life; heartbeats exist only to bound
		// the silence and are consumed here at driver level.
		p.ft.lastHeard[pkt.Src] = p.w.Eng.Now()
		if pkt.Kind == fabric.Heartbeat {
			return
		}
	}
	if p.rel != nil {
		released := p.rel.admit(pkt)
		if len(released) == 0 {
			return
		}
		// Each released packet routes to its own shard's completion queue
		// (a retransmit flush can release packets of several flows).
		for _, rp := range released {
			if rp.Kind == fabric.PartData {
				// Partitioned arrivals are consumed at driver level — the
				// NIC writes partition data into the pre-posted buffer, no
				// progress loop involved — so the ACK is issued here too.
				p.handlePartData(rp)
				p.rel.ackDelivered(rp)
				continue
			}
			if p.sharded && rp.Kind == fabric.Revoke {
				// N-dependent rule: a sharded proc consumes revocations
				// at driver level, like heartbeats — the threads a Revoke
				// must unblock may only ever poll other shards, so it
				// cannot wait in one shard's completion queue. A one-shard
				// proc's every poller drives shard 0, so the Revoke waits
				// in its queue and is applied by the progress loop, under
				// the section, like any other event.
				p.consumeRevoke(rp)
				continue
			}
			p.vcis[rp.VCI].cq = append(p.vcis[rp.VCI].cq, rp)
		}
		p.w.deliveredTotal += int64(len(released))
		p.activity.WakeAll(p.w.Eng.Now())
		return
	}
	if pkt.Kind == fabric.PartData {
		// Fault-free partitioned arrival: same driver-level consumption as
		// the reliable branch above, minus the transport bookkeeping.
		p.handlePartData(pkt)
		p.w.deliveredTotal++
		p.activity.WakeAll(p.w.Eng.Now())
		return
	}
	p.vcis[pkt.VCI].cq = append(p.vcis[pkt.VCI].cq, pkt)
	p.w.deliveredTotal++
	p.activity.WakeAll(p.w.Eng.Now())
}

// Thread is an application thread bound to a core of its process; all MPI
// calls are methods on it.
type Thread struct {
	S *sim.Thread
	P *Proc

	lctx simlock.Ctx
	// holdUseful marks the current critical-section hold as having
	// advanced the progress engine (handled a completion event) — the
	// telemetry plane's Fig. 6a useful/wasted split. Set by handlePacket,
	// consumed by csLock.exit.
	holdUseful bool
	// pollBackoff tracks consecutive empty polls for adaptive spinning.
	pollBackoff int
	// noBackoff pins the progress loop at full spinning speed (async
	// progress threads never slow down, per MPICH behaviour).
	noBackoff bool
	// errPath marks the thread as executing recovery code; lock
	// acquisitions made while set are counted as error-path traffic
	// (only ever set when the fault-tolerance plane is armed).
	errPath bool
	// cq is the thread's internal completion queue, lazily created by the
	// continuation-mode Waitall (empty between calls).
	cq *CompletionQueue
}

// Place returns the core this thread is bound to.
func (th *Thread) Place() machine.Place { return th.lctx.Place }

// Spawn creates an application thread on the given rank. Threads are bound
// to cores in spawn order according to the world's binding policy. When the
// last application thread returns, the simulation stops (daemon pollers
// would otherwise spin forever).
func (w *World) Spawn(rank int, name string, fn func(th *Thread)) *Thread {
	w.appThreads++
	w.Procs[rank].liveApp++
	return w.spawn(rank, name, func(th *Thread) {
		fn(th)
		if th.P.crashed {
			// killRank already retired this process's threads from the
			// accounting; a zombie that slept through its own crash (and so
			// never hit a runtime checkpoint) must not double-decrement.
			return
		}
		w.appThreads--
		th.P.liveApp--
		if w.appThreads == 0 {
			w.Eng.Stop()
		}
	})
}

func (w *World) spawn(rank int, name string, fn func(th *Thread)) *Thread {
	p := w.Procs[rank]
	idx := p.nthreads
	p.nthreads++
	place := w.Cfg.Topo.Bind(w.Cfg.Binding, p.Node, p.firstCore, p.coreCount, idx)
	var th *Thread
	st := w.Eng.Spawn(fmt.Sprintf("%s[r%d.t%d]", name, rank, idx), func(s *sim.Thread) {
		defer func() {
			// A fail-stopped process's threads unwind via rankCrashed
			// (ft.go) and simply stop — killRank already retired them
			// from the appThreads accounting. Anything else propagates.
			if r := recover(); r != nil {
				if _, ok := r.(rankCrashed); !ok {
					panic(r)
				}
			}
		}()
		fn(th)
	})
	th = &Thread{S: st, P: p, lctx: simlock.Ctx{T: st, Place: place}}
	st.Data = th
	w.tel.RegisterThread(st.ID(), st.Name())
	return th
}

// SpawnAsyncProgress starts the MPICH-style asynchronous progress thread on
// the given rank: a daemon blocked "forever" in the progress loop at low
// priority, exactly like a progress thread waiting on a never-completing
// request. It polls continuously — including when there is nothing to do,
// which is when it wastes lock acquisitions and monopolizes a mutex-guarded
// runtime (paper §6.1.2). The paper's Fig. 9 experiments enable this on
// every process.
func (w *World) SpawnAsyncProgress(rank int) *Thread {
	th := w.spawn(rank, "async-progress", func(th *Thread) {
		th.S.SetDaemon()
		th.noBackoff = true
		// One async thread drives every shard's progress engine in turn,
		// taking each shard lock independently.
		for {
			for v := range th.P.vcis {
				th.progressRound(v, simlock.Low, nil)
			}
			th.progressYield()
		}
	})
	return th
}

// enter acquires the process's global critical section, charging the
// runtime-state cache-line migration on ownership changes. Used directly
// by tests; regular call paths go through mainBegin/stateBegin/
// progressRound, which honour the configured granularity.
//
//simcheck:allow lockpair test-only wrapper; tests pair enter/exit themselves
func (th *Thread) enter(cl simlock.Class) { th.P.vcis[0].cs.enter(th, cl) }

// exit releases the process's global critical section.
//
//simcheck:allow lockpair test-only wrapper; tests pair enter/exit themselves
func (th *Thread) exit(cl simlock.Class) { th.P.vcis[0].cs.exit(th, cl) }

func (th *Thread) cost() machine.CostModel { return th.P.w.Cfg.Cost }

// telStart opens an MPI-call telemetry span, returning its start time, or
// -1 when telemetry is disabled (the only cost on the fast path).
func (th *Thread) telStart() int64 {
	if th.P.w.tel == nil {
		return -1
	}
	return th.S.Now()
}

// telCall closes a call span opened by telStart.
func (th *Thread) telCall(name string, from int64) {
	if from < 0 {
		return
	}
	th.P.w.tel.Call(th.S.ID(), name, from, th.S.Now())
}
