package mpi

// This file implements the sharded runtime: the shard type holding one
// virtual communication interface's matching queues, completion queue,
// request pool and critical-section lock, and the cross-VCI wildcard
// section that owns every shard at once. There is one code path: an
// unsharded proc is a proc with one shard, whose section is the paper's
// global critical section. Four rules depend on the shard count, each
// reading Proc.sharded and documented at its site: the shared-NIC
// injection lock (sendShard), cross-shard wildcard receives
// (vciWildcard), the wait engine's pre-check for the list calls
// (waitCheck, wait.go), and driver-level Revoke consumption
// (Proc.onPacket).
// Like granularity.go, the section helpers here open and close critical
// sections across function boundaries by design; the lockpair analyzer
// enforces pairing at their call sites.
//
//simcheck:allow-file lockpair protocol wrappers; pairing is enforced at call sites

import (
	"mpicontend/internal/fabric"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/simlock"
)

// vciShard is one virtual communication interface of a proc: an
// independent slice of the runtime — matching queues, completion queue,
// request pool — guarded by its own critical-section lock. Two operations
// mapped to different shards of the same proc never contend; the only
// remaining arbitration between them is the shared-NIC injection lock
// (Proc.nicVCI) and the physical NIC serialization in the fabric.
type vciShard struct {
	p      *Proc
	idx    int
	cs     csLock
	posted []*Request  // posted receive queue
	unexp  []*envelope // unexpected message queue
	cq     pktQueue    // network completion queue

	// Partitioned communication keeps its own matching space: a
	// partitioned aggregate must never match an eager/rendezvous receive
	// with the same (comm, tag, src) and vice versa (MPI-4.0 separates
	// the channels). pposted holds started Precv requests; punexp
	// accumulates partition arrivals that beat their Precv's Start.
	pposted []*Request
	punexp  []*penvelope

	// reqFree pools provably-dead request objects of this shard (see
	// Request.poolable); every request is drawn from and recycled into
	// the pool of the shard it lives on.
	reqFree *Request
	// envFree pools unexpected-queue envelopes: a receive that matches an
	// envelope copies what it needs and hands the object back here.
	envFree *envelope
}

// Ready is the shard's progress-daemon wake condition
// (sim.WaitQueue.WaitUntil): network events are queued, or the proc
// crashed and the daemon must unwind.
//
//simcheck:hotpath checked by the engine on every daemon wake; stays allocation-free
func (sh *vciShard) Ready() bool { return sh.p.crashed || sh.cq.len() != 0 }

// pktQueue is a shard's network completion queue: a FIFO of packets that
// keeps its backing array. Pops advance a head index and rewind it when
// the queue empties; a push into a full array slides the live packets
// down instead of growing it once the consumed prefix is at least half
// the array, so a steady producer/consumer pair stops allocating as soon
// as the array fits its largest burst.
type pktQueue struct {
	buf  []*fabric.Packet
	head int
}

func (q *pktQueue) len() int { return len(q.buf) - q.head }

func (q *pktQueue) push(pkt *fabric.Packet) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, pkt)
}

// pop removes and returns the oldest packet; the queue must be non-empty.
func (q *pktQueue) pop() *fabric.Packet {
	pkt := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return pkt
}

// selectVCI maps an operation on (comm, tag) to its shard.
func (p *Proc) selectVCI(c *Comm, tag int) int {
	return vci.Select(p.w.Cfg.VCIPolicy, c.ctx, tag, c.vciHint(), len(p.vcis))
}

// vciWildcard reports whether a receive with the given tag cannot be
// mapped to one shard and must take the cross-VCI path. N-dependent rule:
// a one-shard proc has no cross-shard receive — every tag maps to shard
// 0, which already holds the whole matching order.
func (p *Proc) vciWildcard(tag int) bool {
	return p.sharded && vci.Wildcard(p.w.Cfg.VCIPolicy, tag, AnyTag)
}

// allocReq returns a request from shard v's pool without clearing it: a
// recycled object still holds its last owner's fields. Every caller must
// assign it a full Request literal before any other use; the literal also
// clears its pooled mark and its free-list link.
func (p *Proc) allocReq(v int) *Request {
	sh := p.vcis[v]
	if r := sh.reqFree; r != nil {
		sh.reqFree = r.nextFree
		return r
	}
	//simcheck:allow hotalloc pool-miss slow path: a shard allocates only while its live requests outnumber every earlier peak
	return new(Request)
}

// recycle returns a freed request to its shard's pool when the object is
// provably dead (Request.poolable). Errored requests are never pooled:
// late protocol events may still reference them.
func (p *Proc) recycle(r *Request) {
	if !r.poolable || r.err != nil {
		return
	}
	sh := p.vcis[r.vci]
	r.pooled = true
	r.nextFree = sh.reqFree
	sh.reqFree = r
}

// post appends a receive to the shard's posted queue.
func (sh *vciShard) post(r *Request) {
	//simcheck:allow hotalloc queue growth only while the posted backlog outgrows every earlier one; the queue keeps its array
	sh.posted = append(sh.posted, r)
}

// queueUnexpected appends an arrival that matched no posted receive to
// the shard's unexpected queue, in an envelope from the shard's pool.
func (sh *vciShard) queueUnexpected(e envelope) {
	//simcheck:allow hotalloc envelope pool misses and queue growth: both happen only while the backlog outgrows every earlier one
	sh.unexp = append(sh.unexp, sh.newEnvelope(e))
}

// newEnvelope returns a pooled envelope object holding e.
func (sh *vciShard) newEnvelope(e envelope) *envelope {
	q := sh.envFree
	if q == nil {
		q = new(envelope)
	} else {
		sh.envFree = q.nextFree
	}
	*q = e
	return q
}

// freeEnvelope returns a matched envelope, already out of the queue, to
// the shard's pool. The object is cleared, so a reused envelope carries no
// stale payload or sender request.
func (sh *vciShard) freeEnvelope(e *envelope) {
	*e = envelope{nextFree: sh.envFree}
	sh.envFree = e
}

// cqEmpty reports whether every shard's completion queue is empty (the
// selective-wakeup park condition).
func (p *Proc) cqEmpty() bool {
	for _, sh := range p.vcis {
		if sh.cq.len() > 0 {
			return false
		}
	}
	return true
}

// wildBegin opens the cross-VCI wildcard section: every shard's critical
// section, acquired in ascending shard order (the module-wide discipline
// that makes the multi-acquire deadlock-free; the lock-identity layer
// canonicalizes the indexed acquisitions as one ordered class). Main-path
// work is charged once, after the last acquisition.
func (th *Thread) wildBegin() {
	th.checkCrashed()
	th.checkThreadLevel()
	p := th.P
	for v := range p.vcis {
		p.vcis[v].cs.enter(th, simlock.High)
	}
	th.S.Sleep(th.cost().MainPathWork)
}

// wildEnd closes a wildBegin section, releasing in reverse order.
func (th *Thread) wildEnd() {
	p := th.P
	for v := len(p.vcis) - 1; v >= 0; v-- {
		p.vcis[v].cs.exit(th, simlock.High)
	}
	th.exitThreadLevel()
}

// nicInjectWork is the driver-level CPU cost of handing one packet to the
// shared NIC while holding the injection lock: a cached descriptor write
// plus a posted (fire-and-forget) doorbell MMIO. The hold time is what a
// tuned driver achieves — short enough that a waiter usually gets the
// lock within its user-space spin budget, so the injection point only
// punishes locks with poor hand-off under burst pressure.
const nicInjectWork = 10

// sendShard injects a protocol packet from the caller's shard section.
// N-dependent rule: the shared NIC is the one arbitration site left
// between the shards of a sharded proc, so injection runs under the
// nicVCI lock (always high class — the driver does not discriminate),
// nested inside the caller's shard section, giving the invariant lock
// order shard CS -> NIC. A one-shard proc's section already serializes
// every injection, so it hands the packet to the NIC directly.
func (p *Proc) sendShard(th *Thread, pkt *fabric.Packet, notifyTx bool, owner *Request) {
	if !p.sharded {
		p.send(pkt, notifyTx, owner)
		return
	}
	p.nicVCI.enter(th, simlock.High)
	th.S.Sleep(nicInjectWork)
	p.send(pkt, notifyTx, owner)
	p.nicVCI.exit(th, simlock.High)
}

// consumeRevoke applies a communicator revocation at driver level (engine
// context). Only reached with the fault-tolerance plane armed (Revoke
// packets do not otherwise exist), where the reliable transport is active
// and the ACK must be issued here, since the packet never reaches a
// progress loop.
func (p *Proc) consumeRevoke(pkt *fabric.Packet) {
	p.revokeFrom(pkt.Meta.(revokeMeta), p.w.Eng.Now())
	if pkt.Rel && p.rel != nil {
		p.rel.ackDelivered(pkt)
	}
}

// reqShard returns the state-section shard of a request: its own VCI, or
// shard 0 for a request that completed without ever binding to a shard
// (fault paths can fail an unbound wildcard while it is still cross-posted).
func reqShard(r *Request) int {
	if r.vci < 0 {
		return 0
	}
	return r.vci
}

// shardSet marks which shards a call polls or locks this round.
type shardSet []bool

// add marks the shards r can complete on: its own VCI, or every shard
// while it is an unbound wildcard.
func (s shardSet) add(r *Request) {
	if r.vci < 0 {
		for i := range s {
			s[i] = true
		}
		return
	}
	s[r.vci] = true
}
