// Package simlock implements the paper's critical-section arbitration
// models on top of the discrete-event simulator, all built by New(kind):
//
//   - FutexMutex, the NPTL futex mutex whose user-space CAS race is biased
//     by the memory hierarchy (§2.2, §4); without its futex sleep path it
//     is the TAS spinlock of related work §8.
//   - queueLock, one FCFS hand-off core for the ticket lock (§5.1, Fig. 4),
//     the CLH and MCS queue locks (§8) and §7's socket-first ablation; the
//     kinds differ only in three physics facts New sets.
//   - PriorityLock, the two-level priority lock of §5.2 (Fig. 7), built
//     from ticket locks, or from futex mutexes for §7's rejected variant.
//   - CohortLock, a NUMA-aware extension nesting per-socket ticket locks
//     under a global one.
//
// Arbitration emerges from modelled cache physics rather than being
// scripted: a release dirties the lock's cache line at the releaser's core,
// and each contender observes the release only after the line-transfer
// latency from that core, plus its own spin-phase alignment and a small
// seeded jitter. Futex-slept threads additionally pay a kernel wake-up
// penalty. The earliest observer wins a mutex CAS race; a queue-lock
// release instead hands off to the one waiter its kind serves next.
//
// The locks carry no observation hooks. The §4.3/§4.4 grant stream is
// observed once, in the MPI runtime's critical-section wrapper, which
// reports each request and grant around Acquire to the telemetry
// recorder, the one lock observer; tests drive the same waiting-set rule
// (telemetry.WaitSet) around their own Acquire calls.
//
// simlock is part of the deterministic core (docs/ARCHITECTURE.md).
package simlock

import (
	"fmt"
	"strings"

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

// Config carries the shared knobs for all simulated locks.
type Config struct {
	Eng  *sim.Engine
	Cost machine.CostModel
}

// Kind enumerates the lock implementations available to the runtime.
type Kind int

const (
	// KindMutex is the NPTL futex-based pthread mutex model (baseline).
	KindMutex Kind = iota
	// KindTicket is the FCFS ticket lock (§5.1): a queue lock whose
	// waiters spin on the shared now_serving line, so a hand-off lands
	// at the successor's next spin check.
	KindTicket
	// KindPriority is the two-level priority lock (§5.2, Fig. 7) built
	// from three ticket locks.
	KindPriority
	// KindTAS is a test-and-set spinlock (related work §8): the futex
	// mutex's CAS race without its sleep path.
	KindTAS
	// KindMCS is the MCS queue lock (related work §8): FCFS, each waiter
	// spinning on its own line, and an uncontended acquire charges no
	// line fetch.
	KindMCS
	// KindPrioMutex is the Fig. 7 shape built from three futex mutexes;
	// §7 argues this cannot work. Included as an ablation.
	KindPrioMutex
	// KindSocketPriority is the queue lock serving the releaser's socket
	// first, the socket-aware variant §7 warns may starve remote
	// sockets. Included as an ablation.
	KindSocketPriority
	// KindNone disables locking entirely, modelling MPI_THREAD_SINGLE
	// (valid only with one runtime thread per process).
	KindNone
	// KindCohort is a NUMA-aware two-level cohort lock: socket-local
	// hand-offs with a bounded batch (extension; the principled version
	// of §7's socket-aware idea).
	KindCohort
	// KindCLH is the CLH queue lock (related work §8): FCFS like the
	// ticket lock, but each waiter spins locally on its predecessor's
	// node line, so hand-offs skip the shared-line spin-check rounding.
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

// ParseKind returns the lock kind whose String matches s, ignoring case
// ("mutex", "CLH", "single", ...).
func ParseKind(s string) (Kind, error) {
	var names []string
	for k := KindMutex; k.Valid(); k++ {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
		names = append(names, strings.ToLower(k.String()))
	}
	return 0, fmt.Errorf("unknown lock %q (%s)", s, strings.Join(names, "|"))
}

// NullLock is a no-op "lock" modelling MPI_THREAD_SINGLE: no atomic
// operations, no serialization. Using it with more than one thread in the
// runtime is undefined, exactly like calling a THREAD_SINGLE MPI library
// from multiple threads.
type NullLock struct{}

// Acquire returns immediately.
func (NullLock) Acquire(*Ctx, Class) {}

// Release does nothing.
func (NullLock) Release(*Ctx, Class) {}

// Name returns the figure label ("Single").
func (NullLock) Name() string { return "Single" }

// New constructs a lock of the given kind. It is the only constructor:
// the queue-lock kinds differ only in the physics facts set here.
func New(k Kind, cfg *Config) Lock {
	switch k {
	case KindMutex:
		return newFutexMutex(cfg, "Mutex", false)
	case KindTicket:
		return newTicket(cfg, "Ticket")
	case KindPriority:
		b := newTicket(cfg, "ticket_B")
		b.fetchFree = false // fetched alongside ticket_H's line
		return &PriorityLock{name: "Priority", h: newTicket(cfg, "ticket_H"),
			l: newTicket(cfg, "ticket_L"), b: b}
	case KindTAS:
		return newFutexMutex(cfg, "TAS", true)
	case KindMCS:
		return &queueLock{cfg: cfg, name: "MCS"}
	case KindPrioMutex:
		return &PriorityLock{name: "PrioMutex", h: newFutexMutex(cfg, "Mutex", false),
			l: newFutexMutex(cfg, "Mutex", false), b: newFutexMutex(cfg, "Mutex", false)}
	case KindSocketPriority:
		return &queueLock{cfg: cfg, name: "SocketPriority", fetchFree: true, socketFirst: true}
	case KindNone:
		return NullLock{}
	case KindCohort:
		return &CohortLock{cfg: cfg, global: newTicket(cfg, "cohort_global"), socks: map[int]*cohortSock{}}
	case KindCLH:
		return &queueLock{cfg: cfg, name: "CLH", fetchFree: true}
	default:
		panic("simlock: unknown kind")
	}
}
