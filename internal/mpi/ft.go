package mpi

// This file implements the process-level fault-tolerance plane: scheduled
// fail-stop crashes (fault.CrashSpec), the deterministic sim-time heartbeat
// failure detector, and the bookkeeping that turns a peer's silence into
// ErrProcFailed on every request that can no longer complete. The ULFM-style
// recovery primitives built on top (Revoke/Shrink) live in ulfm.go.
//
// Everything here is gated on a non-empty crash schedule: with no crashes
// configured, no ftProc is allocated, zero timers are armed and every hook
// is a single nil or bool check, keeping fault-free runs byte-identical.

import (
	"sort"

	"mpicontend/internal/fabric"
	"mpicontend/internal/sim"
)

// rankCrashed unwinds a thread of a fail-stopped process. The panic is
// recovered in the spawn wrapper (world.go): a crashed thread simply stops
// executing, mid-call, exactly like a process that lost power.
type rankCrashed struct{}

// The heartbeat failure detector's timing: a rank silent for
// heartbeatMiss consecutive periods is declared dead.
const (
	heartbeatNs   sim.Time = 100_000 // heartbeat period (100µs)
	heartbeatMiss          = 3
)

// ftWorld is the world-wide fault-tolerance state (nil without crashes).
type ftWorld struct {
	// crashedAt[r] is rank r's actual kill time (-1 while alive);
	// detectedAt[r] is the earliest time any survivor declared r dead.
	crashedAt  []sim.Time
	detectedAt []sim.Time

	// errPathLocks counts critical-section acquisitions made by threads
	// inside recovery code (Revoke/Shrink and workload error
	// handling) — the "lock acquisitions spent on the error path" metric.
	errPathLocks int64

	// Recovery-primitive counters.
	revokes, shrinks int64
	deadAborts       int64 // transport sends aborted into dead peers
}

// ftProc is one process's fault-tolerance state (nil without crashes).
type ftProc struct {
	// lastHeard[r] is the last time any packet from rank r arrived here —
	// every delivery is proof of life, heartbeats only guarantee a floor.
	lastHeard []sim.Time
	// dead[r] is this process's local detection time for rank r (-1 =
	// believed alive). Detection is local: peers learn of a failure at
	// different sim times, exactly like ULFM.
	dead []sim.Time
	// revoked holds the communicator contexts this process has observed a
	// revocation for (user context and its collective shadow).
	revoked map[int]bool
	// live tracks in-flight requests in issue order so a detection or
	// revocation can fail exactly the ones that can no longer complete.
	// Completed entries are dropped lazily on each sweep.
	live []*Request
}

func newFtProc(n int) *ftProc {
	ft := &ftProc{
		lastHeard: make([]sim.Time, n),
		dead:      make([]sim.Time, n),
		revoked:   make(map[int]bool),
	}
	for i := range ft.dead {
		ft.dead[i] = -1
	}
	return ft
}

// isDead reports this process's local belief about rank r.
func (ft *ftProc) isDead(r int) bool { return ft.dead[r] >= 0 }

// setupFT arms the fault-tolerance plane: per-proc state, scheduled
// crashes, and one heartbeat/detector timer chain per rank. Called from
// NewWorld only when the config schedules at least one crash.
func (w *World) setupFT() {
	fc := w.plane.Config()
	n := len(w.Procs)
	w.ft = &ftWorld{
		crashedAt:  make([]sim.Time, n),
		detectedAt: make([]sim.Time, n),
	}
	for i := 0; i < n; i++ {
		w.ft.crashedAt[i] = -1
		w.ft.detectedAt[i] = -1
		w.Procs[i].ft = newFtProc(n)
	}
	for _, spec := range fc.Crashes {
		if spec.Rank < 0 || spec.Rank >= n {
			continue
		}
		victims := []int{spec.Rank}
		if spec.Node {
			victims = victims[:0]
			node := w.Procs[spec.Rank].Node
			for _, p := range w.Procs {
				if p.Node == node {
					victims = append(victims, p.Rank)
				}
			}
		}
		for _, rank := range victims {
			if spec.OnLockHold {
				// Deferred to the rank's first critical-section
				// acquisition at or after AtNs (csLock.enter), so the
				// process dies holding the lock.
				at := spec.AtNs
				if at <= 0 {
					at = 1
				}
				w.Procs[rank].lockCrashAt = at
			} else {
				rank := rank
				w.Eng.At(spec.AtNs, func() { w.killRank(rank) })
			}
		}
	}
	for _, p := range w.Procs {
		w.startHeartbeat(p)
	}
}

// killRank executes a fail-stop failure of the given rank at the current
// sim time: the NIC blackholes traffic in both directions, the rank's
// threads unwind at their next runtime checkpoint, and — critically — no
// peer is told. Failure is observable only as silence.
func (w *World) killRank(rank int) {
	p := w.Procs[rank]
	if p.crashed {
		return
	}
	now := w.Eng.Now()
	p.crashed = true
	w.ft.crashedAt[rank] = now
	w.Fab.Kill(rank)
	w.plane.NoteCrash()
	// The rank's application threads will never return: retire them from
	// the stop accounting now so the surviving ranks' completion (not the
	// dead ones') ends the run.
	w.appThreads -= p.liveApp
	p.liveApp = 0
	// Unpark anything parked on this proc so it reaches a crash check.
	p.activity.WakeAll(now)
	if w.appThreads == 0 {
		w.Eng.Stop()
	}
}

// checkCrashed unwinds the calling thread if its process fail-stopped. One
// boolean load on every runtime entry point — the whole cost of crash
// support on healthy processes.
func (th *Thread) checkCrashed() {
	if th.P.crashed {
		panic(rankCrashed{})
	}
}

// startHeartbeat runs rank p's combined heartbeat emitter and failure
// detector: every period the progress engine (driver level, engine
// context) broadcasts a liveness beacon to every peer and declares dead
// any peer silent for longer than the timeout. The chain stops
// rescheduling itself once p crashes — a dead NIC emits nothing.
func (w *World) startHeartbeat(p *Proc) {
	var tick func()
	tick = func() {
		if p.crashed {
			return
		}
		now := w.Eng.Now()
		for _, q := range w.Procs {
			if q == p {
				continue
			}
			p.ep.Send(&fabric.Packet{Kind: fabric.Heartbeat, Src: p.Rank, Dst: q.Rank}, false)
		}
		for _, q := range w.Procs {
			if q == p || p.ft.isDead(q.Rank) {
				continue
			}
			if now-p.ft.lastHeard[q.Rank] > heartbeatNs*heartbeatMiss {
				p.declareDead(q.Rank, now)
			}
		}
		w.Eng.After(heartbeatNs, tick)
	}
	w.Eng.After(heartbeatNs, tick)
}

// declareDead records this process's local detection of rank r's failure
// and fails every in-flight operation that needed r: posted receives from
// it, sends and RMA ops addressed to it, and unacknowledged transport
// records (which would otherwise retransmit into the blackhole until
// retry exhaustion).
func (p *Proc) declareDead(r int, now sim.Time) {
	ft := p.ft
	if ft.isDead(r) {
		return
	}
	ft.dead[r] = now
	w := p.w
	if w.ft.detectedAt[r] < 0 {
		w.ft.detectedAt[r] = now
	}
	ft.sweep(now, func(req *Request) bool { return req.peerIs(r) }, ErrProcFailed)
	if p.rel != nil {
		p.rel.failPeer(r, now)
	}
	p.activity.WakeAll(now)
}

// peerIs reports whether the request's remote partner is world rank r.
// Send and RMA requests store the world destination; receives store the
// communicator-local source, translated here.
func (r *Request) peerIs(rank int) bool {
	switch r.kind {
	case SendReq, RMAReq:
		return r.dst == rank
	case RecvReq:
		return r.src != AnySource && r.comm != nil && r.comm.world(r.src) == rank
	}
	return false
}

// sweep fails every tracked in-flight request matching the predicate and
// compacts the tracking list (dropping completed entries). Iteration is in
// issue order, so the resulting wake-ups are deterministic.
func (ft *ftProc) sweep(now sim.Time, match func(*Request) bool, code Errcode) {
	kept := ft.live[:0]
	for _, r := range ft.live {
		if r.complete || r.freed {
			continue
		}
		if match(r) {
			r.fail(code, now)
			continue
		}
		kept = append(kept, r)
	}
	for i := len(kept); i < len(ft.live); i++ {
		ft.live[i] = nil
	}
	ft.live = kept
}

// issue counts a freshly issued request as outstanding, decides whether
// its object may be pooled once consumed (Request.poolable), and reports
// whether it already failed, in which case nothing may reach the wire.
// Only a run with a fault plane has more to do at issue (issueFaulty).
func (p *Proc) issue(r *Request) bool {
	p.outstanding++
	r.poolable = p.rel == nil && !r.wild && r.part == nil
	//simcheck:allow hotalloc fault-plane runs only: the deadline timer and the live-request list are the reliable transport's cost
	return p.rel != nil && p.issueFaulty(r)
}

// issueFaulty arms the request's deadline, registers it with the
// fault-tolerance plane and fails it immediately — before any packet
// reaches the wire — when its context is already revoked or its peer
// already declared dead (the fail-fast issue path). Returns true when the
// request was failed.
func (p *Proc) issueFaulty(r *Request) bool {
	p.armDeadline(r)
	ft := p.ft
	if ft == nil {
		return false
	}
	ft.live = append(ft.live, r)
	now := p.w.Eng.Now()
	if ft.revoked[r.ctx] {
		r.fail(ErrRevoked, now)
		return true
	}
	switch r.kind {
	case SendReq, RMAReq:
		if ft.isDead(r.dst) {
			r.fail(ErrProcFailed, now)
			return true
		}
	case RecvReq:
		if r.src != AnySource && r.comm != nil && ft.isDead(r.comm.world(r.src)) {
			r.fail(ErrProcFailed, now)
			return true
		}
	}
	return false
}

// failPeer aborts every unacknowledged transport record addressed to the
// dead rank: cancel the retransmit timer, retire the record and fail the
// owning request. Keys are sorted so the abort order (and the wake-ups it
// causes) is deterministic.
func (rs *relState) failPeer(rank int, now sim.Time) {
	var keys []txKey
	for k := range rs.tx {
		if k.dst == rank {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].vci != keys[j].vci {
			return keys[i].vci < keys[j].vci
		}
		return keys[i].seq < keys[j].seq
	})
	for _, k := range keys {
		rec := rs.tx[k]
		rec.acked = true
		rec.timer.Cancel()
		delete(rs.tx, k)
		rs.p.w.ft.deadAborts++
		if rec.owner != nil {
			rec.owner.fail(ErrProcFailed, now)
		}
	}
}

// RecoveryStats surfaces the fault-tolerance plane's outcome counters.
type RecoveryStats struct {
	// Crashed lists the killed world ranks in rank order.
	Crashed []int
	// FirstCrashNs is the earliest kill time (-1 when nothing crashed).
	FirstCrashNs int64
	// DetectNs is the worst-case detection latency over all crashed
	// ranks: earliest detection anywhere minus the kill time (-1 when
	// nothing was detected).
	DetectNs int64
	// ErrPathLocks counts critical-section acquisitions by threads
	// executing recovery code.
	ErrPathLocks int64
	// Revokes/Shrinks count recovery-primitive invocations.
	Revokes, Shrinks int64
	// DeadAborts counts transport sends aborted at a dead-peer check
	// instead of retransmitting into the blackhole.
	DeadAborts int64
}

// Recovery returns the fault-tolerance counters (zero value when no crash
// schedule is configured).
func (w *World) Recovery() RecoveryStats {
	s := RecoveryStats{FirstCrashNs: -1, DetectNs: -1}
	if w.ft == nil {
		return s
	}
	for r, at := range w.ft.crashedAt {
		if at < 0 {
			continue
		}
		s.Crashed = append(s.Crashed, r)
		if s.FirstCrashNs < 0 || at < s.FirstCrashNs {
			s.FirstCrashNs = at
		}
		if det := w.ft.detectedAt[r]; det >= 0 {
			if lat := det - at; lat > s.DetectNs {
				s.DetectNs = lat
			}
		}
	}
	s.ErrPathLocks = w.ft.errPathLocks
	s.Revokes = w.ft.revokes
	s.Shrinks = w.ft.shrinks
	s.DeadAborts = w.ft.deadAborts
	return s
}

// BeginErrPath marks the calling thread as executing recovery code: every
// critical-section acquisition until EndErrPath is counted as error-path
// lock traffic. The recovery primitives mark themselves; workloads wrap
// their own error handling.
func (th *Thread) BeginErrPath() { th.errPath = th.P.ft != nil }

// EndErrPath ends the error-path marking started by BeginErrPath.
func (th *Thread) EndErrPath() { th.errPath = false }
