// Package mpisim is the public facade of the MPI-runtime contention
// simulator reproducing "MPI+Threads: Runtime Contention and Remedies"
// (PPoPP'15). It exposes the paper's benchmarks — multithreaded
// point-to-point throughput and latency, N2N all-to-all streaming, RMA
// with asynchronous progress, Graph500 BFS, a 3-D stencil, and a genome
// assembler — over a deterministic discrete-event model of a NUMA cluster,
// with the critical-section arbitration (pthread mutex, ticket, priority)
// as the experimental variable.
//
// Quick start:
//
//	res, err := mpisim.Throughput(mpisim.ThroughputConfig{
//		Lock: mpisim.Ticket, Threads: 8, MsgBytes: 64,
//	})
//	fmt.Printf("%.0f msgs/s\n", res.RateMsgsPerSec)
//
// The experimental variables — Lock, Granularity, Binding, VCIPolicy,
// ProgressMode, RMAOp, PatternKind, RecoveryStrategy — and the fault and
// statistics types are aliases of the runtime's own types, so a value
// means exactly what the runtime means by it, and an out-of-range value
// is rejected with an error by the run it configures. The per-benchmark
// Config structs are plain field copies onto the workloads' parameters.
//
// RunExperiment regenerates one table or figure, TraceExperiment records
// the telemetry of its representative point, and Sweep/SweepFunc
// regenerate many across OS workers; all three take the same Options.
//
// mpisim fronts the deterministic core (docs/ARCHITECTURE.md): every call
// builds an isolated engine from its config and seed and is a pure
// function of them. Sweep and RunPoints fan such isolated runs across OS
// workers with byte-identical output.
package mpisim

import (
	"fmt"

	"mpicontend/internal/experiments"
	"mpicontend/internal/fault"
	"mpicontend/internal/genome"
	"mpicontend/internal/graph500"
	"mpicontend/internal/machine"
	"mpicontend/internal/mpi"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/report"
	"mpicontend/internal/simlock"
	"mpicontend/internal/stencil"
	"mpicontend/internal/telemetry"
	"mpicontend/internal/workloads"
)

// FaultConfig describes a fault-injection scenario and the resilient
// transport's tuning. The zero value is a perfect network: no faults, no
// reliability layer, zero overhead — fault-free runs are byte-identical
// with or without this feature. All fault randomness is seeded, so a
// faulty run is exactly reproducible. A non-empty Crashes schedule arms
// the heartbeat failure detector and the ULFM-style recovery primitives.
type FaultConfig = fault.Config

// CrashSpec schedules one fail-stop failure: it kills one rank (or its
// whole node) at a simulated time, turning it into a silent packet
// blackhole.
type CrashSpec = fault.CrashSpec

// NetStats reports the resilient transport's counters for one run; all
// fields are zero on a perfect network. Injected faults are counted under
// Fault.
type NetStats = mpi.NetStats

// PartStats reports the MPI-4 partitioned-communication counters for one
// run; all fields are zero unless a partitioned mode was enabled.
// Partitions/Aggregates is the aggregation ratio (messages saved per lock
// acquisition).
type PartStats = mpi.PartStats

// Lock selects the critical-section arbitration used by the simulated MPI
// runtime. Its String names the lock as in the paper's figures.
type Lock = simlock.Kind

// Arbitration methods. Mutex is the paper's baseline; Ticket and Priority
// are its remedies; Single models MPI_THREAD_SINGLE (one thread, no lock);
// the rest are related-work and ablation variants.
const (
	Mutex          = simlock.KindMutex
	Ticket         = simlock.KindTicket
	Priority       = simlock.KindPriority
	Single         = simlock.KindNone
	TAS            = simlock.KindTAS
	MCS            = simlock.KindMCS
	PrioMutex      = simlock.KindPrioMutex
	SocketPriority = simlock.KindSocketPriority
	// Cohort is a NUMA-aware bounded-batch cohort lock (extension).
	Cohort = simlock.KindCohort
	// CLH is the CLH queue lock: FCFS hand-off on per-waiter flags
	// (related work; the queue-lock family's cache-friendly variant).
	CLH = simlock.KindCLH
)

// Binding selects how threads are pinned to cores.
type Binding = machine.Binding

// Thread-to-core binding policies (paper §4.2).
const (
	// Compact fills one socket before the next.
	Compact = machine.Compact
	// Scatter round-robins threads over sockets.
	Scatter = machine.Scatter
)

// Granularity selects the critical-section granularity (paper Fig. 1).
type Granularity = mpi.Granularity

// Critical-section granularities, coarse to fine.
const (
	// Global is the paper's baseline: one critical section per call.
	Global = mpi.GranGlobal
	// BriefGlobal shrinks the section to the queue updates.
	BriefGlobal = mpi.GranBrief
	// FineGrain gives the matching queues and NIC separate locks.
	FineGrain = mpi.GranFine
	// LockFree models idealized atomic queues.
	LockFree = mpi.GranLockFree
)

// ThroughputConfig parametrizes the osu_bw-derived multithreaded
// throughput benchmark (paper §4.1).
type ThroughputConfig struct {
	Lock Lock
	// Granularity selects the critical-section granularity (default
	// Global, the paper's baseline).
	Granularity Granularity
	// Progress selects who drives the progress engine: polling
	// (default), SelectiveProgress (the §9 selective wake-up), strong or
	// continuation. See docs/PROGRESS.md.
	Progress ProgressMode
	Binding  Binding
	Threads  int
	MsgBytes int64
	// Window is the per-thread request window (default 64, as in the
	// paper); Windows is how many windows each thread completes.
	Window  int
	Windows int
	// ProcsPerNode: 1 (default) or 2 for the process-per-socket setup.
	ProcsPerNode int
	Seed         uint64
	// Trace enables the §4.3 fairness and §4.4 dangling-request
	// analyses on the receiver's runtime. An attached Telemetry enables
	// them too; Trace alone attaches a cheap fold-only recorder.
	Trace bool
	// Fault injects network/scheduler faults (zero = perfect network).
	Fault FaultConfig
	// Telemetry attaches the deterministic observability plane (nil =
	// disabled, zero recording overhead). Purely observational: enabling
	// it never changes simulated results.
	Telemetry *Telemetry
}

// ThroughputResult reports the throughput benchmark.
type ThroughputResult struct {
	Messages       int64
	SimNs          int64
	RateMsgsPerSec float64
	// BiasCore and BiasSocket are the §4.3 bias factors (1 = fair);
	// populated when Trace was set or Telemetry attached.
	BiasCore, BiasSocket float64
	// DanglingAvg is the §4.4 metric; populated like the bias factors.
	DanglingAvg float64
	// Net holds the resilient-transport counters.
	Net NetStats
}

// Throughput runs the multithreaded point-to-point throughput benchmark.
func Throughput(c ThroughputConfig) (ThroughputResult, error) {
	tel := c.Telemetry.recorder()
	if c.Trace && tel == nil {
		tel = telemetry.New()
	}
	r, err := workloads.Throughput(workloads.ThroughputParams{
		Lock: c.Lock, Granularity: c.Granularity,
		Progress: c.Progress, Binding: c.Binding,
		Threads: c.Threads, MsgBytes: c.MsgBytes,
		Window: c.Window, Windows: c.Windows,
		ProcsPerNode: c.ProcsPerNode, Seed: c.Seed,
		Fault: c.Fault, Tel: tel,
	})
	if err != nil {
		return ThroughputResult{}, err
	}
	return ThroughputResult{
		Messages: r.Messages, SimNs: r.SimNs, RateMsgsPerSec: r.RateMsgsPerSec,
		BiasCore:    r.Arbitration.BiasFactorCore,
		BiasSocket:  r.Arbitration.BiasFactorSocket,
		DanglingAvg: r.Arbitration.DanglingAvg,
		Net:         r.Net,
	}, nil
}

// LatencyConfig parametrizes the osu_latency-derived multithreaded
// ping-pong benchmark (paper §6.1.1).
type LatencyConfig struct {
	Lock     Lock
	Binding  Binding
	Threads  int
	MsgBytes int64
	Iters    int
	Seed     uint64
	// Fault injects network/scheduler faults (zero = perfect network).
	Fault FaultConfig
	// Telemetry attaches the deterministic observability plane (nil =
	// disabled).
	Telemetry *Telemetry
}

// LatencyResult reports the latency benchmark.
type LatencyResult struct {
	AvgOneWayUs float64
	SimNs       int64
	// Net holds the resilient-transport counters.
	Net NetStats
}

// Latency runs the multithreaded ping-pong latency benchmark.
func Latency(c LatencyConfig) (LatencyResult, error) {
	r, err := workloads.Latency(workloads.LatencyParams{
		Lock: c.Lock, Binding: c.Binding,
		Threads: c.Threads, MsgBytes: c.MsgBytes, Iters: c.Iters, Seed: c.Seed,
		Fault: c.Fault, Tel: c.Telemetry.recorder(),
	})
	if err != nil {
		return LatencyResult{}, err
	}
	return LatencyResult{AvgOneWayUs: r.AvgOneWayUs, SimNs: r.SimNs, Net: r.Net}, nil
}

// VCIPolicy selects how operations are mapped onto a proc's virtual
// communication interfaces when VCIs > 1. Its String names the policy as
// used in figures and flags.
type VCIPolicy = vci.Policy

// Mapping policies of the sharded runtime.
const (
	// PerComm maps all traffic of one communicator to one VCI.
	PerComm = vci.PerComm
	// PerTagHash maps by (communicator, tag), spreading one communicator
	// over all VCIs when tags differ (e.g. one tag per thread).
	PerTagHash = vci.PerTagHash
	// ExplicitVCI uses the communicator's explicit VCI assignment,
	// falling back to PerComm for unassigned communicators.
	ExplicitVCI = vci.Explicit
)

// ProgressMode selects who drives the MPI progress engine
// (docs/PROGRESS.md). Its String names the mode as used in figures and
// flags; ParseProgressMode is the inverse.
type ProgressMode = mpi.ProgressMode

// Progress modes of the runtime.
const (
	// PollingProgress is the paper's shape: blocked application threads
	// iterate the progress loop from Wait, re-acquiring the critical
	// section around every poll. The default.
	PollingProgress = mpi.ProgressPolling
	// StrongProgress runs a dedicated progress daemon per VCI shard;
	// blocked application threads park instead of polling.
	StrongProgress = mpi.ProgressStrong
	// ContinuationProgress is strong progress plus completion-time
	// callbacks and completion-queue draining: Waitall becomes one
	// batched enqueue and a drain.
	ContinuationProgress = mpi.ProgressContinuation
	// SelectiveProgress is polling with the paper's §9 selective
	// wake-up: a thread whose poll came up empty parks until an arrival
	// or completion wakes it, instead of re-acquiring the critical
	// section.
	SelectiveProgress = mpi.ProgressSelective
)

// ParseProgressMode maps a mode name, as printed by ProgressMode.String,
// back to the mode; the empty string means PollingProgress.
func ParseProgressMode(s string) (ProgressMode, error) {
	for _, m := range []ProgressMode{PollingProgress, StrongProgress, ContinuationProgress, SelectiveProgress} {
		if s == m.String() {
			return m, nil
		}
	}
	if s == "" {
		return PollingProgress, nil
	}
	return 0, fmt.Errorf("unknown -progress mode %q (polling|strong|continuation|selective)", s)
}

// N2NConfig parametrizes the all-to-all streaming benchmark (paper §5.2).
type N2NConfig struct {
	Lock     Lock
	Procs    int
	Threads  int
	MsgBytes int64
	Windows  int
	Seed     uint64
	// PerThreadTags pairs thread t of each rank with thread t of every
	// peer via tags, making match pools per-thread instead of pooled
	// per-process (and, with PerTagHash VCIs, per-VCI).
	PerThreadTags bool
	// Partitioned replaces each thread's per-message eager sends with
	// MPI-4 partitioned channels: one persistent Psend/Precv pair per
	// peer, each message a lock-free Pready partition flip, one aggregated
	// wire transfer (and one runtime lock acquisition) per window.
	Partitioned bool
	// VCIs shards each proc's runtime into this many virtual
	// communication interfaces, each with its own matching queues,
	// request pool and critical-section lock (0/1 = the unsharded
	// runtime, byte-identical to earlier versions). VCIPolicy picks the
	// operation→VCI mapping.
	VCIs      int
	VCIPolicy VCIPolicy
	// Progress selects who drives the progress engine: polling (default),
	// strong (per-shard progress daemons), or continuation (daemons plus
	// completion-queue Waitall). See docs/PROGRESS.md.
	Progress ProgressMode
	// Fault injects network/scheduler faults (zero = perfect network).
	Fault FaultConfig
	// Telemetry attaches the deterministic observability plane (nil =
	// disabled).
	Telemetry *Telemetry
}

// N2NResult reports the N2N benchmark.
type N2NResult struct {
	RateMsgsPerSec float64
	SimNs          int64
	UnexpectedHits int64
	// Net holds the resilient-transport counters.
	Net NetStats
	// Part holds the partitioned-communication counters (all zero unless
	// Partitioned was set).
	Part PartStats
}

// N2N runs the all-to-all streaming benchmark.
func N2N(c N2NConfig) (N2NResult, error) {
	r, err := workloads.N2N(workloads.N2NParams{
		Lock: c.Lock, Procs: c.Procs, Threads: c.Threads,
		MsgBytes: c.MsgBytes, Windows: c.Windows, Seed: c.Seed,
		PerThreadTags: c.PerThreadTags, Partitioned: c.Partitioned,
		VCIs: c.VCIs, VCIPolicy: c.VCIPolicy, Progress: c.Progress,
		Fault: c.Fault, Tel: c.Telemetry.recorder(),
	})
	if err != nil {
		return N2NResult{}, err
	}
	return N2NResult{RateMsgsPerSec: r.RateMsgsPerSec, SimNs: r.SimNs,
		UnexpectedHits: r.UnexpectedHits, Net: r.Net, Part: r.Part}, nil
}

// RMAOp selects the one-sided operation.
type RMAOp = workloads.RMAOp

// One-sided operations (paper §6.1.2).
const (
	Put        = workloads.OpPut
	Get        = workloads.OpGet
	Accumulate = workloads.OpAcc
)

// RMAConfig parametrizes the ARMCI-style one-sided benchmark with
// asynchronous progress threads (paper §6.1.2).
type RMAConfig struct {
	Lock      Lock
	Op        RMAOp
	Procs     int
	ElemBytes int64
	Ops       int
	Seed      uint64
	// Progress selects who drives the progress engine (default polling;
	// SelectiveProgress is the §9 selective wake-up). See
	// docs/PROGRESS.md.
	Progress ProgressMode
	// Fault injects network/scheduler faults (zero = perfect network).
	Fault FaultConfig
	// Telemetry attaches the deterministic observability plane (nil =
	// disabled).
	Telemetry *Telemetry
}

// RMAResult reports the RMA benchmark.
type RMAResult struct {
	RateElemPerSec float64
	SimNs          int64
	// Net holds the resilient-transport counters.
	Net NetStats
}

// RMA runs the one-sided benchmark.
func RMA(c RMAConfig) (RMAResult, error) {
	r, err := workloads.RMA(workloads.RMAParams{
		Lock: c.Lock, Op: c.Op, Procs: c.Procs,
		ElemBytes: c.ElemBytes, Ops: c.Ops, Window: 1, Seed: c.Seed,
		Progress: c.Progress, Fault: c.Fault,
		Tel: c.Telemetry.recorder(),
	})
	if err != nil {
		return RMAResult{}, err
	}
	return RMAResult{RateElemPerSec: r.RateElemPerSec, SimNs: r.SimNs, Net: r.Net}, nil
}

// BFSConfig parametrizes the Graph500 BFS kernel (paper §6.2.1).
type BFSConfig struct {
	Lock    Lock
	Binding Binding
	Procs   int
	Threads int
	// Scale is log2 of the vertex count (edge factor 16).
	Scale int
	Seed  uint64
	// Fault injects network/scheduler faults (zero = perfect network).
	Fault FaultConfig
}

// BFSResult reports the BFS kernel.
type BFSResult struct {
	MTEPS           float64
	SimNs           int64
	VisitedVertices int64
	// Net holds the resilient-transport counters.
	Net NetStats
}

// BFS runs the Graph500 BFS kernel.
func BFS(c BFSConfig) (BFSResult, error) {
	r, err := graph500.Run(graph500.Params{
		Lock: c.Lock, Binding: c.Binding,
		Procs: c.Procs, Threads: c.Threads, Scale: c.Scale, Seed: c.Seed,
		Fault: c.Fault,
	})
	if err != nil {
		return BFSResult{}, err
	}
	return BFSResult{MTEPS: r.MTEPS, SimNs: r.SimNs,
		VisitedVertices: r.VisitedVertices, Net: r.Net}, nil
}

// StencilConfig parametrizes the 3-D 7-point stencil kernel (paper §6.2.2).
type StencilConfig struct {
	Lock       Lock
	Procs      int
	Threads    int
	NX, NY, NZ int
	Iters      int
	Seed       uint64
	// Funneled uses the MPI_THREAD_FUNNELED structure (thread 0
	// communicates, lock-free runtime) instead of THREAD_MULTIPLE.
	Funneled bool
	// Partitioned moves the X/Y halo faces onto MPI-4 partitioned
	// channels: every thread publishes its slab rows with a lock-free
	// Pready and each face goes out as one aggregated transfer per
	// iteration. Incompatible with Funneled.
	Partitioned bool
	// Progress selects who drives the progress engine (docs/PROGRESS.md).
	// Incompatible with Funneled, which runs below MPI_THREAD_MULTIPLE.
	Progress ProgressMode
	// Fault injects network/scheduler faults (zero = perfect network).
	Fault FaultConfig
}

// StencilResult reports the stencil kernel.
type StencilResult struct {
	GFlops                      float64
	SimNs                       int64
	MPIPct, ComputePct, SyncPct float64
	Checksum                    float64
	// Net holds the resilient-transport counters.
	Net NetStats
	// Part holds the partitioned-communication counters (all zero unless
	// Partitioned was set).
	Part PartStats
}

// Stencil runs the 3-D stencil kernel.
func Stencil(c StencilConfig) (StencilResult, error) {
	r, err := stencil.Run(stencil.Params{
		Lock: c.Lock, Procs: c.Procs, Threads: c.Threads,
		NX: c.NX, NY: c.NY, NZ: c.NZ, Iters: c.Iters, Seed: c.Seed,
		Funneled: c.Funneled, Partitioned: c.Partitioned,
		Progress: c.Progress, Fault: c.Fault,
	})
	if err != nil {
		return StencilResult{}, err
	}
	return StencilResult{GFlops: r.GFlops, SimNs: r.SimNs, MPIPct: r.MPIPct,
		ComputePct: r.ComputePct, SyncPct: r.SyncPct, Checksum: r.Checksum,
		Net: r.Net, Part: r.Part}, nil
}

// AssemblyConfig parametrizes the SWAP-style genome assembly application
// (paper §6.3).
type AssemblyConfig struct {
	Lock      Lock
	Procs     int
	GenomeLen int
	Reads     int
	Seed      uint64
	// Fault injects network/scheduler faults (zero = perfect network).
	Fault FaultConfig
}

// AssemblyResult reports the assembly run.
type AssemblyResult struct {
	SimNs       int64
	Contigs     int
	ContigBases int64
	N50         int
	// Net holds the resilient-transport counters.
	Net NetStats
}

// Assembly runs the genome assembly application.
func Assembly(c AssemblyConfig) (AssemblyResult, error) {
	r, err := genome.Run(genome.Params{
		Lock: c.Lock, Procs: c.Procs,
		GenomeLen: c.GenomeLen, Reads: c.Reads, Seed: c.Seed,
		Fault: c.Fault,
	})
	if err != nil {
		return AssemblyResult{}, err
	}
	return AssemblyResult{SimNs: r.SimNs, Contigs: len(r.Contigs),
		ContigBases: r.ContigBases, N50: r.N50, Net: r.Net}, nil
}

// Figure is a rendered experiment table.
type Figure struct {
	ID    string
	Title string
	Text  string
	// Chart is an ASCII rendering of the same series.
	Chart string
	// Data is the machine-readable form of the figure (nil for text-only
	// tables like table1). Data.Marshal() emits the flat JSON schema.
	Data *FigureData
}

// FigureData is the machine-readable form of a Figure: the experiment's
// table itself, whose Format is the Figure's Text.
type FigureData = report.Table

// Experiments lists the runnable experiment ids (tables/figures of the
// paper plus ablations).
func Experiments() []string { return experiments.IDs() }

// Options sizes, seeds and configures an experiment run: Quick shrinks
// the sweep for fast runs, Seed is the base RNG seed (0 = the default
// seed) and Progress sets the progress mode of the experiments that honour
// it (the N2N-shaped figures; the progress experiment sweeps every mode
// itself). The zero value is the full-size, default-seed, polling run.
type Options = experiments.Options

// RunExperiment regenerates the given table/figure. It is Sweep over the
// one id at Jobs 1, so every point runs serially on the calling goroutine.
func RunExperiment(id string, o Options) ([]Figure, error) {
	res, err := Sweep(SweepConfig{IDs: []string{id}, Quick: o.Quick,
		Seed: o.Seed, Progress: o.Progress, Jobs: 1})
	if err != nil {
		return nil, err
	}
	return res[0].Figures, nil
}

// figuresFor converts an experiment's rendered tables to public Figures.
// It is the single table→Figure path, so RunExperiment and Sweep produce
// identical bytes.
func figuresFor(e experiments.Experiment, tables []*report.Table) []Figure {
	if e.ID == "table1" {
		// Table 1 is static machine-specification text, not a data series.
		return []Figure{{ID: "table1", Title: e.Title, Text: experiments.Table1Text()}}
	}
	figs := make([]Figure, 0, len(tables))
	for _, t := range tables {
		figs = append(figs, Figure{ID: t.ID, Title: t.Title,
			Text: t.Format(), Chart: t.Chart(), Data: t})
	}
	return figs
}

// PatternKind selects a scenario of the multithreaded MPI pattern battery
// (after Thakur & Gropp; paper §8 ref [27]).
type PatternKind = workloads.Pattern

// Battery scenarios.
const (
	// ConcurrentPairs pairs thread i of each rank.
	ConcurrentPairs = workloads.PatternConcurrentPairs
	// FanIn drives all sender threads into one receiver.
	FanIn = workloads.PatternFanIn
	// FanOut feeds all receiver threads from one sender.
	FanOut = workloads.PatternFanOut
	// ComputeOverlap interleaves computation with communication.
	ComputeOverlap = workloads.PatternComputeOverlap
)

// PatternConfig parametrizes one battery run.
type PatternConfig struct {
	Lock     Lock
	Pattern  PatternKind
	Threads  int
	MsgBytes int64
	Msgs     int
	Seed     uint64
	// Fault injects network/scheduler faults (zero = perfect network).
	Fault FaultConfig
}

// PatternResult reports one battery run.
type PatternResult struct {
	RateMsgsPerSec float64
	SimNs          int64
	// Net holds the resilient-transport counters.
	Net NetStats
}

// Pattern runs one scenario of the multithreaded pattern battery.
func Pattern(c PatternConfig) (PatternResult, error) {
	r, err := workloads.RunPattern(workloads.PatternParams{
		Lock: c.Lock, Pattern: c.Pattern, Threads: c.Threads,
		MsgBytes: c.MsgBytes, Msgs: c.Msgs, Seed: c.Seed,
		Fault: c.Fault,
	})
	if err != nil {
		return PatternResult{}, err
	}
	return PatternResult{RateMsgsPerSec: r.RateMsgsPerSec, SimNs: r.SimNs, Net: r.Net}, nil
}

// RecoveryStrategy selects how survivors continue after a rank failure.
type RecoveryStrategy = workloads.RecoveryStrategy

// Recovery strategies.
const (
	// Shrink is shrink-and-redistribute: survivors revoke, shrink to a new
	// communicator and continue forward with the dead rank's domain share.
	Shrink = workloads.RecoverShrink
	// Checkpoint is in-memory checkpoint/restart: survivors roll back to
	// the newest globally consistent checkpoint line and redo.
	Checkpoint = workloads.RecoverCheckpoint
)

// RecoveryConfig parametrizes the fault-tolerant iterative workload.
type RecoveryConfig struct {
	Lock Lock
	// Procs is the rank count (default 4); ProcsPerNode packs ranks onto
	// nodes (default 1).
	Procs, ProcsPerNode int
	// Iters is the per-rank iteration count (default 64).
	Iters int
	// Strategy selects the recovery scheme (default Shrink).
	Strategy RecoveryStrategy
	// N2N switches the kernel from ring halo exchange to all-to-all.
	N2N bool
	// CkptInterval is the checkpoint period in iterations (default 8).
	CkptInterval int
	Seed         uint64
	// Fault carries the crash schedule the workload must survive.
	Fault FaultConfig
}

// RecoveryResult reports one fault-tolerant run.
type RecoveryResult struct {
	SimNs int64
	// Survivors is the rank count alive at the end; Checksum is the agreed
	// final reduction (the determinism witness).
	Survivors int
	Checksum  int64
	// DetectNs is the worst heartbeat detection latency; RecoverNs the
	// worst per-rank time inside recovery; Recoveries the recovery rounds
	// entered; ErrPathLocks the progress-lock acquisitions on the error
	// path.
	DetectNs, RecoverNs, Recoveries, ErrPathLocks int64
	// Net holds the resilient-transport counters.
	Net NetStats
}

// Recovery runs the fault-tolerant iterative workload: survivors detect the
// configured crashes, revoke and shrink the communicator (or roll back to a
// checkpoint) and finish the computation.
func Recovery(c RecoveryConfig) (RecoveryResult, error) {
	kern := workloads.KernelRing
	if c.N2N {
		kern = workloads.KernelN2N
	}
	r, err := workloads.Recovery(workloads.RecoveryParams{
		Lock: c.Lock, Procs: c.Procs, ProcsPerNode: c.ProcsPerNode,
		Iters: c.Iters, Strategy: c.Strategy, Kernel: kern,
		CkptInterval: c.CkptInterval, Seed: c.Seed, Fault: c.Fault,
	})
	if err != nil {
		return RecoveryResult{}, err
	}
	return RecoveryResult{
		SimNs: r.SimNs, Survivors: r.Survivors, Checksum: r.Checksum,
		DetectNs: r.Recovery.DetectNs, RecoverNs: r.RecoverNs,
		Recoveries: r.Recoveries, ErrPathLocks: r.Recovery.ErrPathLocks,
		Net: r.Net,
	}, nil
}
