package machine

import (
	"fmt"
	"strings"
)

// CostModel collects every timing constant of the simulation, in integer
// nanoseconds (bandwidths in bytes/second). The defaults are calibrated to
// the paper's platform (Table 1): dual-socket Nehalem at 2.6 GHz with a
// Mellanox QDR InfiniBand fabric driven through MXM.
//
// The lock-arbitration constants are the heart of the reproduction: a
// released lock's cache line is observed by other cores only after the
// line-transfer latency from the releaser's cache, which is what biases
// NPTL mutex arbitration toward the previous owner's core and socket
// (paper §4.2–4.3).
type CostModel struct {
	// --- Cache/coherence latencies for a contended lock line ---

	// SameCoreReuse is the cost for a thread to touch a line already in
	// its own L1 (the releaser immediately re-acquiring).
	SameCoreReuse int64
	// SameSocketTransfer is the line transfer cost between cores sharing
	// an L3 (intra-socket snoop).
	SameSocketTransfer int64
	// CrossSocketTransfer is the line transfer cost across the QPI link.
	CrossSocketTransfer int64

	// --- Spin/futex behaviour (NPTL model, §2.2) ---

	// SpinCheckPeriod is the interval between successive polls of a
	// busy-waiting thread.
	SpinCheckPeriod int64
	// CASPenalty is the extra coherence delay added per additional
	// contender racing a compare-and-swap on the same line (CAS storm;
	// ticket locks avoid it, §5.1).
	CASPenalty int64
	// CASJitter is the maximum random perturbation of a CAS race arrival
	// (models pipeline/coherence nondeterminism). Must be > 0 so the
	// mutex race is not fully deterministic.
	CASJitter int64
	// MutexSpinBudget is how long a thread re-tries in user space before
	// sleeping in the kernel with FUTEX_WAIT. Default NPTL mutexes
	// (PTHREAD_MUTEX_TIMED_NP) try the CAS essentially once and then
	// sleep (paper §2.2), so this is small.
	MutexSpinBudget int64
	// FutexWake is the cost from FUTEX_WAKE to the woken thread retrying
	// the lock in user space (syscall + scheduler latency).
	FutexWake int64
	// FutexWakeJitter is the maximum extra random wake latency (kernel
	// scheduling noise). It must be comparable to the lock-cycle period,
	// or wake times phase-lock to the release cadence.
	FutexWakeJitter int64
	// FutexWakeSyscall is the cost the *releaser* pays to execute the
	// FUTEX_WAKE system call when sleepers exist. It sits on the unlock
	// critical path — a key reason a contended pthread mutex is slower
	// than a ticket lock, whose release is a single store.
	FutexWakeSyscall int64

	// --- MPI runtime path costs (§4.4, Fig. 6a) ---

	// AtomicOpCost is the cost of one uncontended atomic read-modify-
	// write (reference counts, lock-free queue operations; paper Fig. 1's
	// "Lock-Free" column).
	AtomicOpCost int64
	// CSStateLines is the number of runtime-state cache lines (request
	// queues, progress-engine state) that follow the critical section
	// from core to core: when the CS owner changes, the new owner pays
	// CSStateLines * Transfer(prev, new) before doing useful work. This
	// is what makes a multithreaded runtime slower than single-threaded
	// even under a perfectly fair lock (paper Fig. 8a: multithreaded
	// throughput is ~1/3 of single-threaded).
	CSStateLines int64
	// MainPathWork is the critical-section cost of an MPI call's main
	// path (allocate request, enqueue, bookkeeping).
	MainPathWork int64
	// ProgressPollWork is the cost of one progress-engine poll iteration
	// (check network completion queue) while holding the lock.
	ProgressPollWork int64
	// ProgressHandleWork is the cost of handling one completion event
	// (matching, state transition).
	ProgressHandleWork int64
	// QueueSearchPerItem is the per-item cost of scanning the posted or
	// unexpected queue during matching.
	QueueSearchPerItem int64
	// UnexpectedOverhead is the extra cost of buffering an arrival that
	// found no posted receive (allocate + enqueue an unexpected-queue
	// element), beyond the payload copy.
	UnexpectedOverhead int64
	// UnexpectedMatchOverhead is the extra cost of satisfying a receive
	// from the unexpected queue (dequeue, rendezvous bookkeeping, second
	// copy setup) rather than from a fresh arrival.
	UnexpectedMatchOverhead int64
	// RequestFreeWork is the cost of completing+freeing a request in the
	// main path of Wait/Test.
	RequestFreeWork int64
	// ProgressLoopOverhead is the non-critical work between releasing and
	// re-acquiring the lock inside the progress loop (the yield window in
	// which other threads may grab the lock).
	ProgressLoopOverhead int64
	// YieldJitter is the maximum extra random delay added to each
	// progress-loop yield (variable bookkeeping between polls). It
	// controls how often waiting threads slip in ahead of the releaser's
	// re-acquisition and thereby the strength of mutex monopolization.
	YieldJitter int64
	// AppPerMessageWork is the user-side overhead between MPI calls in
	// benchmark loops.
	AppPerMessageWork int64

	// --- Memory copies ---

	// CopyBandwidth is the intra-process memcpy bandwidth (bytes/s) used
	// for unexpected-message buffering and shared-memory transfers.
	CopyBandwidth int64
	// AccumulateBandwidth is the element-wise reduction bandwidth for
	// MPI_Accumulate-style operations (bytes/s).
	AccumulateBandwidth int64

	// --- Network fabric (QDR InfiniBand via MXM) ---

	// NetLatency is the one-way small-message latency between nodes.
	NetLatency int64
	// NetBandwidth is the per-NIC bandwidth (bytes/s).
	NetBandwidth int64
	// NetOverhead is the per-message injection overhead at the NIC.
	NetOverhead int64
	// IntraNodeLatency is the one-way latency between processes on the
	// same node (shared-memory path).
	IntraNodeLatency int64
	// IntraNodeBandwidth is the shared-memory transfer bandwidth.
	IntraNodeBandwidth int64
	// EagerThreshold is the message size (bytes) at or below which the
	// eager protocol is used; larger messages use rendezvous.
	EagerThreshold int64

	// --- Computation ---

	// FlopCost is the cost of one floating-point op stream element in
	// compute kernels (amortized, includes memory traffic).
	FlopCost int64
	// RemoteMemPenalty scales computation touching memory homed on the
	// other socket (numerator over 100; 0 = no penalty).
	RemoteMemPenaltyPct int64
}

// Default returns the calibrated cost model described in DESIGN.md §5.
func Default() CostModel {
	return CostModel{
		SameCoreReuse:       5,
		SameSocketTransfer:  45,
		CrossSocketTransfer: 110,

		SpinCheckPeriod:  10,
		CASPenalty:       8,
		CASJitter:        40,
		MutexSpinBudget:  50, // NPTL: one user-space retry, then FUTEX_WAIT
		FutexWake:        3000,
		FutexWakeJitter:  4000,
		FutexWakeSyscall: 150,

		AtomicOpCost:            15,
		CSStateLines:            4,
		MainPathWork:            150,
		ProgressPollWork:        400,
		ProgressHandleWork:      80,
		QueueSearchPerItem:      12,
		UnexpectedOverhead:      300,
		UnexpectedMatchOverhead: 200,
		RequestFreeWork:         60,
		ProgressLoopOverhead:    10,
		YieldJitter:             20,
		AppPerMessageWork:       300,

		CopyBandwidth:       6 << 30, // 6 GB/s memcpy
		AccumulateBandwidth: 3 << 30,

		NetLatency:         1300,
		NetBandwidth:       3200 << 20, // ~3.2 GB/s QDR payload
		NetOverhead:        100,
		IntraNodeLatency:   400,
		IntraNodeBandwidth: 8 << 30,
		EagerThreshold:     32 << 10,

		FlopCost:            1,
		RemoteMemPenaltyPct: 35,
	}
}

// Transfer returns the latency for a core at dst to observe a cache line
// last written by a core at src.
func (c *CostModel) Transfer(src, dst Place) int64 {
	switch {
	case src.SameCore(dst):
		return c.SameCoreReuse
	case src.SameSocket(dst):
		return c.SameSocketTransfer
	default:
		// Cross-socket; cross-node lock sharing cannot happen (locks are
		// per-process) but fall through to the worst case defensively.
		return c.CrossSocketTransfer
	}
}

// CopyTime returns the time to memcpy n bytes.
func (c *CostModel) CopyTime(n int64) int64 { return scaleByBW(n, c.CopyBandwidth) }

// AccumulateTime returns the time to reduce n bytes element-wise.
func (c *CostModel) AccumulateTime(n int64) int64 { return scaleByBW(n, c.AccumulateBandwidth) }

func scaleByBW(n, bw int64) int64 {
	if n <= 0 || bw <= 0 {
		return 0
	}
	t := n * 1e9 / bw
	if t < 1 {
		t = 1
	}
	return t
}

// Spec describes the modelled platform in the style of the paper's Table 1.
type Spec struct {
	Architecture   string
	Processor      string
	ClockGHz       float64
	Sockets        int
	CoresPerSocket int
	L3KB           int
	L2KB           int
	Nodes          int
	Interconnect   string
}

// Table1 returns the paper's platform specification for the given topology.
func Table1(t Topology) Spec {
	return Spec{
		Architecture:   "Nehalem (simulated)",
		Processor:      "Xeon E5540 (simulated)",
		ClockGHz:       2.6,
		Sockets:        t.SocketsPerNode,
		CoresPerSocket: t.CoresPerSocket,
		L3KB:           8192,
		L2KB:           256,
		Nodes:          t.Nodes,
		Interconnect:   "Mellanox QDR (modelled)",
	}
}

// String renders the spec as an aligned two-column table.
func (s Spec) String() string {
	var b strings.Builder
	row := func(k string, v interface{}) { fmt.Fprintf(&b, "%-22s %v\n", k, v) }
	row("Architecture", s.Architecture)
	row("Processor", s.Processor)
	row("Clock frequency", fmt.Sprintf("%.1f GHz", s.ClockGHz))
	row("Number of sockets", s.Sockets)
	row("Cores per socket", s.CoresPerSocket)
	row("L3 Size", fmt.Sprintf("%d KB", s.L3KB))
	row("L2 Size", fmt.Sprintf("%d KB", s.L2KB))
	row("Number of nodes", s.Nodes)
	row("Interconnect", s.Interconnect)
	return b.String()
}
