// Package simlock implements the paper's critical-section arbitration
// models on top of the discrete-event simulator: the NPTL futex mutex whose
// user-space CAS race is biased by the memory hierarchy (§2.2, §4), the
// FCFS ticket lock (§5.1, Fig. 4), and the two-level priority lock built
// from ticket locks (§5.2, Fig. 7). TAS and MCS locks are included for the
// related-work comparison (§8).
//
// Arbitration emerges from modelled cache physics rather than being
// scripted: a release dirties the lock's cache line at the releaser's core,
// and each contender observes the release only after the line-transfer
// latency from that core, plus its own spin-phase alignment and a small
// seeded jitter. Futex-slept threads additionally pay a kernel wake-up
// penalty. The earliest observer wins a mutex CAS race; a ticket release
// instead hands off to the unique next ticket holder.
//
// simlock is part of the deterministic core (docs/ARCHITECTURE.md).
package simlock

import (
	"sort"

	"mpicontend/internal/machine"
	"mpicontend/internal/sim"
)

// Class is the scheduling class a thread uses when entering the runtime's
// critical section: High for the main path of an MPI call, Low for
// re-acquisitions from inside the progress loop (paper Fig. 6a). Locks
// without priority support ignore it.
type Class int

const (
	// High marks main-path acquisitions (likely to produce work).
	High Class = iota
	// Low marks progress-loop acquisitions (likely to just poll).
	Low
)

// String names the class.
func (c Class) String() string {
	if c == High {
		return "high"
	}
	return "low"
}

// Ctx binds a simthread to its hardware placement for lock arbitration.
type Ctx struct {
	T     *sim.Thread
	Place machine.Place
}

// Lock is a simulated mutual-exclusion primitive. Acquire blocks the
// calling simthread until it owns the lock; Release must be called with the
// same class that was used to acquire.
type Lock interface {
	Acquire(c *Ctx, cl Class)
	Release(c *Ctx, cl Class)
	Name() string
}

// GrantInfo describes one critical-section acquisition, recorded at the
// moment a thread becomes the owner. It carries everything the paper's
// §4.3 fairness estimators need.
type GrantInfo struct {
	At       sim.Time
	ThreadID int
	Place    machine.Place
	Class    Class
	// Waiters holds the placements of every thread still waiting for the
	// lock at grant time (the new owner excluded).
	Waiters []machine.Place
}

// GrantFunc observes lock acquisitions; attach one via each lock's OnGrant
// field. The Waiters slice is only valid during the call.
type GrantFunc func(GrantInfo)

// Config carries the shared knobs for all simulated locks.
type Config struct {
	Eng  *sim.Engine
	Cost machine.CostModel
	// OnGrant, if non-nil, observes every acquisition.
	OnGrant GrantFunc
}

func (cfg *Config) emit(gi GrantInfo) {
	if cfg.OnGrant != nil {
		cfg.OnGrant(gi)
	}
}

// appendCtxPlaces appends the placements of a waiting set to dst in
// thread-id order: Go map iteration order is randomized, and an
// order-dependent Waiters snapshot would make grant traces differ between
// runs of the same seed.
func appendCtxPlaces(dst []machine.Place, m map[*Ctx]bool) []machine.Place {
	cs := make([]*Ctx, 0, len(m))
	for c := range m {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].T.ID() < cs[j].T.ID() })
	for _, c := range cs {
		dst = append(dst, c.Place)
	}
	return dst
}

// Kind enumerates the lock implementations available to the runtime.
type Kind int

const (
	// KindMutex is the NPTL futex-based pthread mutex model (baseline).
	KindMutex Kind = iota
	// KindTicket is the FCFS ticket lock (§5.1).
	KindTicket
	// KindPriority is the two-level priority lock (§5.2, Fig. 7).
	KindPriority
	// KindTAS is a test-and-set spinlock (related work §8).
	KindTAS
	// KindMCS is the MCS queue lock (related work §8).
	KindMCS
	// KindPrioMutex stacks three futex mutexes in the priority-lock
	// shape; §7 argues this cannot work. Included as an ablation.
	KindPrioMutex
	// KindSocketPriority is the socket-aware priority variant §7 warns
	// may starve remote sockets. Included as an ablation.
	KindSocketPriority
	// KindNone disables locking entirely, modelling MPI_THREAD_SINGLE
	// (valid only with one runtime thread per process).
	KindNone
	// KindCohort is a NUMA-aware two-level cohort lock: socket-local
	// hand-offs with a bounded batch (extension; the principled version
	// of §7's socket-aware idea).
	KindCohort
	// KindCLH is the CLH queue lock: FCFS like the ticket lock, but each
	// waiter spins locally on its predecessor's node line, so hand-offs
	// skip the shared-line spin-phase alignment (related work §8).
	KindCLH
)

// String names the lock kind as used in figures ("Mutex", "Ticket", ...).
func (k Kind) String() string {
	switch k {
	case KindMutex:
		return "Mutex"
	case KindTicket:
		return "Ticket"
	case KindPriority:
		return "Priority"
	case KindTAS:
		return "TAS"
	case KindMCS:
		return "MCS"
	case KindPrioMutex:
		return "PrioMutex"
	case KindSocketPriority:
		return "SocketPriority"
	case KindNone:
		return "Single"
	case KindCohort:
		return "Cohort"
	case KindCLH:
		return "CLH"
	default:
		return "UnknownLock"
	}
}

// Valid reports whether k names one of the lock kinds above.
func (k Kind) Valid() bool { return k >= KindMutex && k <= KindCLH }

// NullLock is a no-op "lock" modelling MPI_THREAD_SINGLE: no atomic
// operations, no serialization. Using it with more than one thread in the
// runtime is undefined, exactly like calling a THREAD_SINGLE MPI library
// from multiple threads.
type NullLock struct {
	cfg *Config
}

// Acquire records the grant (so tracing still works) and returns
// immediately.
func (n NullLock) Acquire(c *Ctx, cl Class) {
	if n.cfg.OnGrant != nil {
		n.cfg.emit(GrantInfo{At: n.cfg.Eng.Now(), ThreadID: c.T.ID(), Place: c.Place, Class: cl})
	}
}

// Release does nothing.
func (n NullLock) Release(*Ctx, Class) {}

// Name returns the figure label ("Single").
func (n NullLock) Name() string { return "Single" }

// New constructs a lock of the given kind.
func New(k Kind, cfg *Config) Lock {
	switch k {
	case KindMutex:
		return NewFutexMutex(cfg)
	case KindTicket:
		return NewTicketLock(cfg)
	case KindPriority:
		return NewPriorityLock(cfg)
	case KindTAS:
		return NewTASLock(cfg)
	case KindMCS:
		return NewMCSLock(cfg)
	case KindPrioMutex:
		return NewPrioMutexLock(cfg)
	case KindSocketPriority:
		return NewSocketPriorityLock(cfg)
	case KindNone:
		return NullLock{cfg: cfg}
	case KindCohort:
		return NewCohortLock(cfg)
	case KindCLH:
		return NewCLHLock(cfg)
	default:
		panic("simlock: unknown kind")
	}
}
