package mpi

import (
	"fmt"
	"sort"
	"strings"

	"mpicontend/internal/fabric"
	"mpicontend/internal/fault"
	"mpicontend/internal/sim"
)

// This file implements the reliable transport the runtime switches to when
// a fault plane is active: every protocol packet (eager, rendezvous
// control and data, RMA) carries a per-flow sequence number, is
// acknowledged by the receiver, retransmitted under exponential backoff
// with seeded jitter when the ACK does not arrive, and deduplicated at the
// receiver. ACK/NACK processing and duplicate suppression run at NIC
// ("driver") level in engine context; the ACK for a first delivery is only
// sent when the progress loop actually processes the packet — so a runtime
// whose critical section is monopolized answers late, draws spurious
// retransmits, and feeds the progress loop even more work. That coupling
// is the contention-hostile regime the fault plane exists to create.
//
// With no fault plane the transport is entirely absent (p.rel == nil):
// no sequence numbers, no timers, no extra packets, no extra rng draws —
// fault-free runs are byte-identical to the pre-fault runtime.

// backoffCap bounds the exponential backoff shift (RTO * 2^attempts).
const backoffCap = 6

// stallIntervals is how many consecutive idle watchdog intervals (with
// requests outstanding) count as a stalled pipeline.
const stallIntervals = 3

// txKey identifies an in-flight reliable packet: destination rank, VCI,
// and per-flow sequence number.
type txKey struct {
	dst int
	vci int
	seq uint64
}

// flowKey names one reliable flow: a peer rank and a VCI. Sequencing is
// per flow, so sharded traffic between the same pair of ranks does not
// serialize through one sequence space (and one shard's loss cannot
// head-of-line-block another's). With one VCI every flow has vci 0 and the
// keying degenerates to the old per-peer counters.
type flowKey struct {
	peer int
	vci  int
}

// txRecord tracks one unacknowledged reliable packet at the sender.
type txRecord struct {
	pkt      *fabric.Packet
	owner    *Request // local request to fail on give-up; may be nil
	attempts int
	acked    bool
	timer    sim.Timer
}

// rxFlow is the receiver side of one (source -> this proc) flow:
// duplicate suppression, gap detection, and in-order release. MPI's
// non-overtaking rule needs FIFO delivery per pair, which retransmissions
// would otherwise break — so out-of-order arrivals are stashed until the
// gap fills, exactly like a TCP reassembly queue.
type rxFlow struct {
	// expected is the lowest sequence number not yet released to the
	// protocol layer; everything below it has been delivered in order.
	expected uint64
	// stash holds out-of-order arrivals above expected.
	stash map[uint64]*fabric.Packet
}

// seen reports whether seq already arrived on this flow.
func (fl *rxFlow) seen(seq uint64) bool {
	if seq < fl.expected {
		return true
	}
	_, ok := fl.stash[seq]
	return ok
}

// admit records an arrival and returns the packets now releasable in
// order: nil while a gap remains, the packet (plus any stashed successors)
// once contiguous.
func (fl *rxFlow) admit(pkt *fabric.Packet) []*fabric.Packet {
	if pkt.Seq > fl.expected {
		if fl.stash == nil {
			fl.stash = make(map[uint64]*fabric.Packet)
		}
		fl.stash[pkt.Seq] = pkt
		return nil
	}
	out := []*fabric.Packet{pkt}
	fl.expected++
	for {
		q, ok := fl.stash[fl.expected]
		if !ok {
			return out
		}
		delete(fl.stash, fl.expected)
		out = append(out, q)
		fl.expected++
	}
}

// relState is a process's reliable-transport state.
type relState struct {
	p     *Proc
	plane *fault.Plane
	cfg   fault.Config // effective (default-filled) tuning

	nextSeq map[flowKey]uint64
	tx      map[txKey]*txRecord
	rx      map[flowKey]*rxFlow

	// onTimeoutFn is the long-lived retransmit callback passed to
	// AtTimerArg, so arming a timer allocates no closure per packet.
	onTimeoutFn func(interface{})

	// Counters (surfaced through World.NetStats).
	Retransmits     int64
	FastRetransmits int64
	DupsSuppressed  int64
	AcksSent        int64
	AcksReceived    int64
	NacksSent       int64
	GiveUps         int64
	// PartRetransmits counts partitions covered by retransmitted PartData
	// segments (partition-granularity recovery, partitioned.go).
	PartRetransmits int64
}

func newRelState(p *Proc, plane *fault.Plane) *relState {
	rs := &relState{
		p: p, plane: plane, cfg: plane.Config(),
		nextSeq: make(map[flowKey]uint64),
		tx:      make(map[txKey]*txRecord),
		rx:      make(map[flowKey]*rxFlow),
	}
	rs.onTimeoutFn = func(arg interface{}) { rs.onTimeout(arg.(*txRecord)) }
	return rs
}

// send routes a protocol packet through the transport when reliability is
// on, and straight to the NIC otherwise. owner, when non-nil, is the local
// request to fail if the transport exhausts its retries.
//
//simcheck:hotpath per-packet send path; allocations here scale with message count
func (p *Proc) send(pkt *fabric.Packet, notifyTx bool, owner *Request) sim.Time {
	if p.rel == nil {
		return p.ep.Send(pkt, notifyTx)
	}
	return p.rel.send(pkt, notifyTx, owner)
}

func (rs *relState) send(pkt *fabric.Packet, notifyTx bool, owner *Request) sim.Time {
	fk := flowKey{pkt.Dst, pkt.VCI}
	seq := rs.nextSeq[fk]
	rs.nextSeq[fk] = seq + 1
	pkt.Seq, pkt.Rel = seq, true
	//simcheck:allow hotalloc per-in-flight-packet reliability state, retired on ACK
	rec := &txRecord{pkt: pkt, owner: owner}
	rs.tx[txKey{pkt.Dst, pkt.VCI, seq}] = rec
	t := rs.p.ep.Send(pkt, notifyTx)
	rs.arm(rec)
	return t
}

// arm schedules rec's retransmit timer: base RTO doubled per attempt (capped
// at 2^backoffCap) plus seeded jitter of up to RTO/4.
func (rs *relState) arm(rec *txRecord) {
	shift := rec.attempts
	if shift > backoffCap {
		shift = backoffCap
	}
	rto := rs.cfg.RTONs << uint(shift)
	rto += rs.plane.BackoffJitter(rs.cfg.RTONs / 4)
	eng := rs.p.w.Eng
	rec.timer = eng.AtTimerArg(eng.Now()+rto, rs.onTimeoutFn, rec)
}

// onTimeout fires when rec's ACK did not arrive in time: retransmit with
// doubled backoff, or give up and fail the owning request.
func (rs *relState) onTimeout(rec *txRecord) {
	if rec.acked {
		return
	}
	if ft := rs.p.ft; ft != nil && ft.isDead(rec.pkt.Dst) {
		// Dead-peer check: the destination was declared failed since this
		// packet went out. Fail fast with ErrProcFailed instead of
		// retransmitting into the blackhole until retry exhaustion.
		delete(rs.tx, txKey{rec.pkt.Dst, rec.pkt.VCI, rec.pkt.Seq})
		rs.p.w.ft.deadAborts++
		if rec.owner != nil {
			rec.owner.fail(ErrProcFailed, rs.p.w.Eng.Now())
		}
		return
	}
	rec.attempts++
	if rec.attempts > rs.cfg.MaxRetries {
		rs.GiveUps++
		delete(rs.tx, txKey{rec.pkt.Dst, rec.pkt.VCI, rec.pkt.Seq})
		if rec.owner != nil {
			rec.owner.fail(ErrRetryExhausted, rs.p.w.Eng.Now())
		}
		return
	}
	rs.Retransmits++
	rs.p.w.retransmitsTotal++
	rs.resend(rec)
	rs.arm(rec)
}

// resend injects a fresh copy of rec's packet (same sequence number, no
// TxDone: the first injection already reported buffer reuse).
func (rs *relState) resend(rec *txRecord) {
	if rec.pkt.Kind == fabric.PartData {
		// Partition-granularity recovery: each segment is its own
		// sequence-numbered unit, so only this range's partitions go out
		// again — count them for the retransmit-locality assertion.
		rs.PartRetransmits += int64(rec.pkt.Hdr.Hi - rec.pkt.Hdr.Lo)
	}
	clone := *rec.pkt
	rs.p.ep.Send(&clone, false)
}

// admit runs at NIC level (engine context) on every delivered packet. It
// consumes transport control traffic (ACK/NACK) and duplicate data packets
// and enforces per-flow in-order release: the returned slice holds the
// packets the protocol layer may now process (empty while reordering or
// loss leaves a sequence gap).
func (rs *relState) admit(pkt *fabric.Packet) []*fabric.Packet {
	switch pkt.Kind {
	case fabric.Ack:
		rs.onAck(pkt)
		return nil
	case fabric.Nack:
		rs.onNack(pkt)
		return nil
	}
	if !pkt.Rel {
		return []*fabric.Packet{pkt}
	}
	fk := flowKey{pkt.Src, pkt.VCI}
	fl := rs.rx[fk]
	if fl == nil {
		fl = &rxFlow{}
		rs.rx[fk] = fl
	}
	if fl.seen(pkt.Seq) {
		// Duplicate (fault-injected copy, or a retransmit racing the
		// ACK). Suppress it and re-ACK immediately at driver level so a
		// slow progress loop cannot sustain a retransmit storm for a
		// packet that already arrived.
		rs.DupsSuppressed++
		rs.sendAck(pkt.Src, pkt.VCI, pkt.Seq)
		return nil
	}
	if pkt.Seq > fl.expected {
		// Sequence gap: request fast retransmit of the lowest missing
		// packet instead of waiting out the sender's timer. The arrival
		// is stashed; a duplicate of a stashed packet is ACKed at driver
		// level above, which is safe — stashed packets are never lost,
		// only held until the flow is contiguous again.
		rs.sendNack(pkt.Src, pkt.VCI, fl.expected)
	}
	return fl.admit(pkt)
}

// onAck completes the matching tx record and cancels its timer.
func (rs *relState) onAck(pkt *fabric.Packet) {
	rs.AcksReceived++
	rec, ok := rs.tx[txKey{pkt.Src, pkt.VCI, pkt.Seq}]
	if !ok {
		return // duplicate ACK for an already-retired record
	}
	rec.acked = true
	rec.timer.Cancel()
	delete(rs.tx, txKey{pkt.Src, pkt.VCI, pkt.Seq})
}

// onNack fast-retransmits the named missing packet if it is still
// unacknowledged.
func (rs *relState) onNack(pkt *fabric.Packet) {
	rec, ok := rs.tx[txKey{pkt.Src, pkt.VCI, pkt.Seq}]
	if !ok || rec.acked {
		return
	}
	rs.FastRetransmits++
	rs.p.w.retransmitsTotal++
	rec.timer.Cancel()
	rs.resend(rec)
	rs.arm(rec)
}

// ackDelivered acknowledges a reliable packet that the progress engine has
// just processed. Called from handlePacket, i.e. only once the runtime's
// critical section actually got around to the packet — a starved progress
// loop therefore ACKs late and draws retransmits.
func (rs *relState) ackDelivered(pkt *fabric.Packet) {
	rs.sendAck(pkt.Src, pkt.VCI, pkt.Seq)
}

// sendAck/sendNack echo the flow's VCI so the sender retires/retransmits
// the record of the right shard's flow.
func (rs *relState) sendAck(to, vci int, seq uint64) {
	rs.AcksSent++
	//simcheck:allow hotalloc reliability-mode traffic is deliberately unpooled: duplicate deliveries share the struct
	rs.p.ep.Send(&fabric.Packet{
		Kind: fabric.Ack, Src: rs.p.Rank, Dst: to, Seq: seq, VCI: vci,
	}, false)
}

func (rs *relState) sendNack(to, vci int, seq uint64) {
	rs.NacksSent++
	rs.p.ep.Send(&fabric.Packet{
		Kind: fabric.Nack, Src: rs.p.Rank, Dst: to, Seq: seq, VCI: vci,
	}, false)
}

// pendingTx returns the number of unacknowledged reliable packets.
func (rs *relState) pendingTx() int { return len(rs.tx) }

// armDeadline starts the per-request deadline timer when the scenario
// configures one (rendezvous CTS timeouts, unmatched receives, lost acks).
func (p *Proc) armDeadline(r *Request) {
	if p.rel == nil {
		return
	}
	d := p.rel.cfg.RequestTimeoutNs
	if d <= 0 {
		return
	}
	eng := p.w.Eng
	r.deadline = eng.AtTimer(eng.Now()+d, func() {
		r.fail(ErrTimeout, eng.Now())
	})
}

// NetStats aggregates the fault plane's injection counters and the
// transport counters across all processes.
type NetStats struct {
	Fault fault.Stats

	Retransmits     int64
	FastRetransmits int64
	DupsSuppressed  int64
	AcksSent        int64
	AcksReceived    int64
	NacksSent       int64
	// GiveUps counts packets the transport abandoned after MaxRetries.
	GiveUps int64
	// PartRetransmits counts partitions re-sent by partitioned-epoch
	// segment retransmissions (partition-granularity recovery: only the
	// unacked ranges of a dropped aggregate go out again). Deliberately
	// absent from String to keep pre-existing table output stable.
	PartRetransmits int64
	// RequestFailures counts requests completed with an error.
	RequestFailures int64
	// WatchdogStalls counts progress-watchdog stall reports.
	WatchdogStalls int64
}

// String renders the stats compactly for experiment tables and logs.
func (s NetStats) String() string {
	return fmt.Sprintf("retx=%d fastretx=%d dup=%d acks=%d/%d nacks=%d giveups=%d reqfail=%d stalls=%d faults[%s]",
		s.Retransmits, s.FastRetransmits, s.DupsSuppressed, s.AcksSent,
		s.AcksReceived, s.NacksSent, s.GiveUps, s.RequestFailures,
		s.WatchdogStalls, s.Fault)
}

// NetStats returns the world-wide resilience counters (all zero on a
// perfect network).
func (w *World) NetStats() NetStats {
	var s NetStats
	s.Fault = w.Fab.FaultStats()
	for _, p := range w.Procs {
		if p.rel == nil {
			continue
		}
		s.Retransmits += p.rel.Retransmits
		s.FastRetransmits += p.rel.FastRetransmits
		s.DupsSuppressed += p.rel.DupsSuppressed
		s.AcksSent += p.rel.AcksSent
		s.AcksReceived += p.rel.AcksReceived
		s.NacksSent += p.rel.NacksSent
		s.GiveUps += p.rel.GiveUps
		s.PartRetransmits += p.rel.PartRetransmits
	}
	s.RequestFailures = w.requestFailures
	s.WatchdogStalls = w.watchdogStalls
	return s
}

// CheckClean verifies end-of-run delivery invariants: no residual queue
// entries (a leftover unexpected message means a duplicate or stray
// delivery reached the application), no live or dangling requests. The
// chaos soak runs it after every scenario.
func (w *World) CheckClean() error {
	var problems []string
	for _, p := range w.Procs {
		posted, unexp, cq := 0, 0, 0
		pposted, punexp := 0, 0
		for _, sh := range p.vcis {
			live := 0
			for _, r := range sh.posted {
				// A tombstone (a wildcard bound or completed elsewhere,
				// awaiting lazy pruning) is not residue.
				if r.wild && (r.complete || r.freed || (r.vci >= 0 && r.vci != sh.idx)) {
					continue
				}
				live++
			}
			posted += live
			unexp += len(sh.unexp)
			cq += sh.cq.len()
			pposted += len(sh.pposted)
			punexp += len(sh.punexp)
		}
		if posted > 0 {
			problems = append(problems, fmt.Sprintf("rank %d: %d posted receives never matched", p.Rank, posted))
		}
		if unexp > 0 {
			problems = append(problems, fmt.Sprintf("rank %d: %d unexpected messages never consumed", p.Rank, unexp))
		}
		if cq > 0 {
			problems = append(problems, fmt.Sprintf("rank %d: %d completion-queue events unprocessed", p.Rank, cq))
		}
		if pposted > 0 {
			problems = append(problems, fmt.Sprintf("rank %d: %d partitioned receives never matched", p.Rank, pposted))
		}
		if punexp > 0 {
			problems = append(problems, fmt.Sprintf("rank %d: %d partitioned arrivals never consumed", p.Rank, punexp))
		}
		if p.outstanding != 0 {
			problems = append(problems, fmt.Sprintf("rank %d: %d requests still outstanding", p.Rank, p.outstanding))
		}
		if p.danglingNow != 0 {
			problems = append(problems, fmt.Sprintf("rank %d: %d requests dangling", p.Rank, p.danglingNow))
		}
		if p.rel != nil {
			// Report in (rank, vci) order: map iteration order would make
			// the residue message differ between runs.
			flows := make([]flowKey, 0, len(p.rel.rx))
			for fk := range p.rel.rx {
				flows = append(flows, fk)
			}
			sort.Slice(flows, func(i, j int) bool {
				if flows[i].peer != flows[j].peer {
					return flows[i].peer < flows[j].peer
				}
				return flows[i].vci < flows[j].vci
			})
			for _, fk := range flows {
				if n := len(p.rel.rx[fk].stash); n > 0 {
					problems = append(problems, fmt.Sprintf(
						"rank %d: %d packets from rank %d stuck behind a sequence gap", p.Rank, n, fk.peer))
				}
			}
		}
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("mpi: residue after run:\n  %s", strings.Join(problems, "\n  "))
}

// startWatchdog arms the progress watchdog: every interval it checks
// whether any packet was delivered, any request completed or any
// retransmit fired; after stallIntervals consecutive idle intervals with
// requests outstanding it records a dangling-request report and stops the
// run with an error.
func (w *World) startWatchdog(interval sim.Time) {
	var lastDelivered, lastCompleted, lastRetrans int64
	idle := 0
	var tick func()
	tick = func() {
		outstanding := 0
		for _, p := range w.Procs {
			if p.crashed {
				// A fail-stopped rank's requests are dead weight, not a
				// stalled pipeline; survivors' progress is what matters.
				continue
			}
			outstanding += p.outstanding
		}
		active := w.deliveredTotal != lastDelivered ||
			w.completedTotal != lastCompleted ||
			w.retransmitsTotal != lastRetrans
		lastDelivered, lastCompleted, lastRetrans =
			w.deliveredTotal, w.completedTotal, w.retransmitsTotal
		if outstanding > 0 && !active {
			idle++
			if idle >= stallIntervals {
				w.watchdogStalls++
				w.stallErr = fmt.Errorf(
					"mpi: progress watchdog: pipeline stalled for %d ns with %d requests outstanding\n%s",
					int64(idle)*interval, outstanding, w.DanglingReport())
				w.Eng.Stop()
				return
			}
		} else {
			idle = 0
		}
		w.Eng.After(interval, tick)
	}
	w.Eng.After(interval, tick)
}

// DanglingReport renders per-process request and queue state — the
// watchdog's diagnostic of a stalled pipeline.
func (w *World) DanglingReport() string {
	var b strings.Builder
	b.WriteString("per-rank request state:\n")
	for _, p := range w.Procs {
		pending := 0
		if p.rel != nil {
			pending = p.rel.pendingTx()
		}
		posted, unexp, cq := 0, 0, 0
		for _, sh := range p.vcis {
			posted += len(sh.posted)
			unexp += len(sh.unexp)
			cq += sh.cq.len()
		}
		fmt.Fprintf(&b, "  rank %d: outstanding=%d dangling=%d posted=%d unexpected=%d cq=%d unacked-tx=%d\n",
			p.Rank, p.outstanding, p.danglingNow, posted, unexp, cq, pending)
		if p.rel != nil && pending > 0 {
			keys := make([]txKey, 0, pending)
			for k := range p.rel.tx {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				if keys[i].dst != keys[j].dst {
					return keys[i].dst < keys[j].dst
				}
				if keys[i].vci != keys[j].vci {
					return keys[i].vci < keys[j].vci
				}
				return keys[i].seq < keys[j].seq
			})
			if len(keys) > 4 {
				keys = keys[:4]
			}
			for _, k := range keys {
				rec := p.rel.tx[k]
				fmt.Fprintf(&b, "    in flight: %v seq %d -> rank %d, %d attempts\n",
					rec.pkt.Kind, k.seq, k.dst, rec.attempts)
			}
		}
	}
	return b.String()
}
