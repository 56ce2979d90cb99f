// Package fault implements a seeded, deterministic fault-injection plane
// for the simulated cluster. The fabric consults it on every wire packet
// (drop, duplicate, extra delay/reorder, NIC injection stalls, link
// brownouts that cut bandwidth) and the MPI runtime consults it for
// simthread "preemption" stalls injected while holding the runtime lock —
// the most contention-hostile perturbation the paper's critical-section
// analysis can face.
//
// All randomness comes from the plane's own generators, forked from a
// single seed, so a faulty run is exactly reproducible and — because the
// plane draws nothing when disabled — a fault-free run is byte-identical
// to a build without the plane at all.
//
// fault is part of the deterministic core (docs/ARCHITECTURE.md).
package fault

import (
	"fmt"
	"strings"

	"mpicontend/internal/sim"
)

// CrashSpec schedules one fail-stop process failure. The crashed rank
// stops executing, its NIC blackholes all traffic in both directions, and
// no peer is told — failure is observable only through silence, which the
// runtime's heartbeat detector turns into ErrProcFailed.
type CrashSpec struct {
	// Rank is the world rank to kill.
	Rank int
	// AtNs is the simulated time of the failure. With OnLockHold the
	// crash is deferred to the rank's first runtime critical-section
	// acquisition at or after AtNs, so the process dies while holding
	// the lock (the worst case for every arbitration scheme: the CS is
	// never released and every local waiter is stranded).
	AtNs int64
	// OnLockHold defers the crash to the next lock acquisition (above).
	OnLockHold bool
	// Node widens the failure domain: every rank placed on the same
	// node as Rank dies at the same instant (a node power loss).
	Node bool
}

// Config describes the fault scenario and the resilience tuning the MPI
// runtime uses to survive it. The zero value is a perfect network: no
// faults, no reliability layer, zero overhead.
type Config struct {
	// DropProb is the probability a wire packet is silently discarded
	// after injection (the NIC believes it was sent).
	DropProb float64
	// DupProb is the probability a wire packet is delivered twice, the
	// copy arriving DelayMaxNs-jittered after the original.
	DupProb float64
	// DelayProb is the probability a wire packet suffers extra latency,
	// uniform in [1, DelayMaxNs] — reordering packets behind it.
	DelayProb float64
	// DelayMaxNs bounds the extra latency (default 20µs when a delay or
	// duplication probability is set).
	DelayMaxNs int64

	// BrownoutPeriodNs > 0 enables periodic link brownouts: every period,
	// the inter-node links run at BrownoutFactor of nominal bandwidth for
	// BrownoutDurationNs.
	BrownoutPeriodNs   int64
	BrownoutDurationNs int64
	// BrownoutFactor is the bandwidth multiplier during a brownout
	// (0 < f < 1; default 0.25).
	BrownoutFactor float64

	// NICStallProb is the probability one injection stalls the NIC for
	// NICStallNs (serializing everything queued behind it).
	NICStallProb float64
	NICStallNs   int64

	// PreemptProb is the probability a thread is "preempted" for
	// PreemptNs immediately after acquiring a runtime critical-section
	// lock — the classic lock-holder-preemption pathology.
	PreemptProb float64
	PreemptNs   int64

	// Crashes schedules fail-stop process failures (rank or node scope).
	// A non-empty schedule arms the runtime's heartbeat failure detector
	// (100µs period, dead after 3 silent periods); an empty one arms zero
	// timers, keeping fault-free runs byte-identical.
	Crashes []CrashSpec

	// Resilient-transport tuning, consumed by the MPI runtime whenever
	// the plane is enabled.

	// RTONs is the base retransmit timeout (default 50µs); it doubles on
	// every retry up to 64x, with seeded jitter of up to RTONs/4.
	RTONs int64
	// MaxRetries bounds retransmissions per packet before the transport
	// gives up and surfaces an error (default 16).
	MaxRetries int
	// RequestTimeoutNs, when > 0, arms a per-request deadline: requests
	// not complete within it fail with an MPI-style timeout error
	// (rendezvous senders whose CTS never arrives, receives never
	// matched). Zero disables deadlines.
	RequestTimeoutNs int64
	// WatchdogNs, when > 0, runs the progress watchdog at this interval:
	// if outstanding requests exist but no packet was delivered, no
	// request completed and no retransmit fired for three consecutive
	// intervals, the run aborts with a dangling-request report.
	WatchdogNs int64

	// Seed drives the plane's private random streams; 0 derives it from
	// the world seed.
	Seed uint64
}

// Enabled reports whether the config perturbs the run at all — it gates
// both the injection hooks and the runtime's reliability layer.
func (c Config) Enabled() bool {
	return c.DropProb > 0 || c.DupProb > 0 || c.DelayProb > 0 ||
		c.BrownoutPeriodNs > 0 || c.NICStallProb > 0 || c.PreemptProb > 0 ||
		len(c.Crashes) > 0
}

// CrashesEnabled reports whether a crash schedule is configured — the
// gate for the heartbeat detector, liveness tracking and recovery
// machinery. Distinct from Enabled so lossy-but-crash-free scenarios pay
// none of the fault-tolerance bookkeeping.
func (c Config) CrashesEnabled() bool { return len(c.Crashes) > 0 }

// withDefaults fills unset tuning fields.
func (c Config) withDefaults(worldSeed uint64) Config {
	if c.DelayMaxNs <= 0 {
		c.DelayMaxNs = 20_000
	}
	if c.BrownoutFactor <= 0 || c.BrownoutFactor >= 1 {
		c.BrownoutFactor = 0.25
	}
	if c.BrownoutPeriodNs > 0 && c.BrownoutDurationNs <= 0 {
		c.BrownoutDurationNs = c.BrownoutPeriodNs / 4
	}
	if c.NICStallNs <= 0 {
		c.NICStallNs = 50_000
	}
	if c.PreemptNs <= 0 {
		c.PreemptNs = 30_000
	}
	if c.RTONs <= 0 {
		c.RTONs = 50_000
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 16
	}
	if c.Seed == 0 {
		c.Seed = worldSeed ^ 0xfadedfab0fabc0de
	}
	return c
}

// Verdict is the plane's decision for one wire packet.
type Verdict struct {
	// Drop discards the packet after injection.
	Drop bool
	// Duplicate delivers a second copy DupExtraNs after the original.
	Duplicate bool
	// ExtraNs is added to the delivery latency (reordering).
	ExtraNs int64
	// DupExtraNs is the duplicate copy's additional latency.
	DupExtraNs int64
	// StallNs is added to the injection time (NIC stall).
	StallNs int64
}

// Stats counts injected faults.
type Stats struct {
	Dropped    int64
	Duplicated int64
	Delayed    int64
	NICStalls  int64
	Preempts   int64
	// BrownoutSends counts injections that hit a degraded link.
	BrownoutSends int64
	// Crashes counts executed fail-stop failures (ranks killed).
	Crashes int64
}

// String renders the counters compactly.
func (s Stats) String() string {
	var parts []string
	add := func(name string, v int64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("dropped", s.Dropped)
	add("dup", s.Duplicated)
	add("delayed", s.Delayed)
	add("nicstall", s.NICStalls)
	add("preempt", s.Preempts)
	add("brownout", s.BrownoutSends)
	add("crash", s.Crashes)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// Plane is an instantiated fault scenario. A nil *Plane is a valid,
// fully-disabled plane (every hook is nil-safe on the caller side).
type Plane struct {
	cfg Config
	// inject decides packet fates; jitter feeds transport backoff. Two
	// independent streams so adding transport retries never perturbs
	// which packets the scenario drops.
	inject *sim.Rand
	jitter *sim.Rand

	stats Stats
}

// New builds a plane from cfg, deriving unset tunables and seeding the
// random streams. It returns nil when the config is disabled, so callers
// can gate on plane != nil for a true zero-cost off switch.
func New(cfg Config, worldSeed uint64) *Plane {
	if !cfg.Enabled() {
		return nil
	}
	cfg = cfg.withDefaults(worldSeed)
	root := sim.NewRand(cfg.Seed)
	return &Plane{cfg: cfg, inject: root.Fork(), jitter: root.Fork()}
}

// Config returns the effective (default-filled) configuration.
func (pl *Plane) Config() Config { return pl.cfg }

// Stats returns the fault counters injected so far.
func (pl *Plane) Stats() Stats { return pl.stats }

// Judge decides the fate of one wire packet about to be injected.
func (pl *Plane) Judge() Verdict {
	var v Verdict
	c := &pl.cfg
	if c.NICStallProb > 0 && pl.inject.Float64() < c.NICStallProb {
		v.StallNs = c.NICStallNs
		pl.stats.NICStalls++
	}
	if c.DropProb > 0 && pl.inject.Float64() < c.DropProb {
		v.Drop = true
		pl.stats.Dropped++
		// A dropped packet draws no further fates: its copy and delay
		// decisions would be unobservable noise in the stream.
		return v
	}
	if c.DelayProb > 0 && pl.inject.Float64() < c.DelayProb {
		v.ExtraNs = 1 + pl.inject.Int63n(c.DelayMaxNs)
		pl.stats.Delayed++
	}
	if c.DupProb > 0 && pl.inject.Float64() < c.DupProb {
		v.Duplicate = true
		v.DupExtraNs = 1 + pl.inject.Int63n(c.DelayMaxNs)
		pl.stats.Duplicated++
	}
	return v
}

// BandwidthFactor returns the inter-node bandwidth multiplier at virtual
// time now: 1 normally, Config.BrownoutFactor inside a brownout window.
// The schedule is pure time arithmetic — no randomness — so it is
// identical across runs and across send orders.
func (pl *Plane) BandwidthFactor(now sim.Time) float64 {
	c := &pl.cfg
	if c.BrownoutPeriodNs <= 0 {
		return 1
	}
	if now%c.BrownoutPeriodNs < c.BrownoutDurationNs {
		pl.stats.BrownoutSends++
		return c.BrownoutFactor
	}
	return 1
}

// PreemptStall returns how long the calling lock holder is preempted for
// (0 almost always). The MPI runtime calls this immediately after every
// critical-section acquisition.
func (pl *Plane) PreemptStall() sim.Time {
	c := &pl.cfg
	if c.PreemptProb > 0 && pl.inject.Float64() < c.PreemptProb {
		pl.stats.Preempts++
		return c.PreemptNs
	}
	return 0
}

// NoteCrash counts one executed fail-stop failure.
func (pl *Plane) NoteCrash() { pl.stats.Crashes++ }

// BackoffJitter returns a seeded jitter in [0, max] for retransmit
// backoff, from a stream independent of the injection decisions.
func (pl *Plane) BackoffJitter(max int64) int64 {
	if max <= 0 {
		return 0
	}
	return pl.jitter.Int63n(max + 1)
}
