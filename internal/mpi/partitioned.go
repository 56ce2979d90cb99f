package mpi

// This file implements MPI-4.0-style partitioned point-to-point
// communication (MPI_Psend_init / MPI_Precv_init / MPI_Pready /
// MPI_Parrived): a persistent request whose payload is split into
// partitions that worker threads mark ready independently. Readiness is a
// lock-free bitmap — the paper's critical-section cost evaporates because
// every Pready but the last touches only atomics — and only the final
// Pready that completes the mask enters the VCI shard section (and, in
// multi-VCI mode, the shared-NIC injection lock) to fire one aggregated
// wire transfer for the whole epoch.
//
// The simulated "lock-free" discipline: the engine runs one simthread at a
// time, so plain field updates are safe; what makes the fast path lock-free
// is that it never enters a critical section (no csLock.enter, no simlock
// traffic) and charges only CostModel.AtomicOpCost per atomic it models.
//
// The receive side is equally runtime-free: PartData packets are consumed
// at driver level (Proc.handlePartData, engine context), like a NIC
// DMA-ing partition data into the pre-posted buffer, so Parrived is a
// plain atomic load with no progress loop behind it.
//
// Matching is deliberately disjoint from the eager/rendezvous channel:
// started Precv requests live on vciShard.pposted and arrivals that beat
// their Start accumulate in vciShard.punexp, so a partitioned transfer can
// never match an Irecv with the same (comm, tag, src) or vice versa.

import (
	"fmt"

	"mpicontend/internal/fabric"
)

// partSegSpan is the partition span of one PartData segment under the
// reliable transport: the aggregate is cut into independently
// sequence-numbered ranges of at most this many partitions, so a dropped
// segment retransmits only its own partitions (partition-granularity
// recovery). Fault-free runs send the whole epoch as one segment.
const partSegSpan = 16

// partBitmap is the partition-readiness mask: one bit per partition plus a
// running count, giving O(1) full detection. set/setRange report the
// n-1 → n transition exactly once per epoch — the trigger the final Pready
// acts on. All methods model lock-free atomics (fetch-or / atomic load);
// the caller charges AtomicOpCost, the engine's one-simthread-at-a-time
// execution supplies the atomicity.
type partBitmap struct {
	words []uint64
	n     int
	ready int
}

// reset re-arms the bitmap for an epoch of n partitions, reusing the word
// storage across epochs (persistent requests allocate once).
func (b *partBitmap) reset(n int) {
	nw := (n + 63) / 64
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
	}
	b.words = b.words[:nw]
	for i := range b.words {
		b.words[i] = 0
	}
	b.n = n
	b.ready = 0
}

// get reports whether partition i is set (one atomic load).
//
//simcheck:hotpath Parrived fast path: a lock-free readiness probe, no allocation
func (b *partBitmap) get(i int) bool {
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// overlaps reports whether any partition in [lo, hi) is already set.
func (b *partBitmap) overlaps(lo, hi int) bool {
	for i := lo; i < hi; i++ {
		if b.get(i) {
			return true
		}
	}
	return false
}

// setRange marks partitions [lo, hi) ready. If any of them is already set
// the call mutates nothing and reports already=true (the double-Pready
// error); otherwise trigger reports whether this call completed the mask —
// true exactly once per epoch.
//
//simcheck:hotpath Pready fast path: the lock-free readiness transition, no lock and no allocation
func (b *partBitmap) setRange(lo, hi int) (already, trigger bool) {
	if b.overlaps(lo, hi) {
		return true, false
	}
	for i := lo; i < hi; i++ {
		b.words[i>>6] |= 1 << uint(i&63)
	}
	b.ready += hi - lo
	return false, b.ready == b.n
}

// full reports whether every partition is set.
func (b *partBitmap) full() bool { return b.ready == b.n }

// penvelope is an entry of the partitioned unexpected queue: partition
// ranges of one epoch that arrived before the matching Precv was started.
// sealed marks a fully-arrived epoch awaiting adoption.
type penvelope struct {
	src, tag, ctx int
	parts         int
	bytesPer      int64
	payload       interface{}
	arrived       partBitmap
	sealed        bool
}

// PartStats are the world-wide partitioned-communication counters.
type PartStats struct {
	// PreadyFast counts Pready/PreadyRange calls that stayed on the
	// lock-free path (did not complete the mask: no critical section).
	PreadyFast int64
	// PreadyTrigger counts the readiness-completing calls that entered
	// the shard section and injected the aggregate — one per epoch.
	PreadyTrigger int64
	// Aggregates counts aggregated transfers (one per triggered epoch).
	Aggregates int64
	// Partitions counts the partitions those aggregates carried; the
	// aggregation ratio is Partitions/Aggregates.
	Partitions int64
	// PartRetransmits counts partitions covered by retransmitted PartData
	// segments: under partition-granularity recovery a dropped aggregate
	// resends only its unacked ranges, so this stays well below
	// Partitions even under heavy loss.
	PartRetransmits int64
}

// PartStats returns the partitioned-communication counters, folding in the
// reliable transport's per-proc partition-retransmit counts.
func (w *World) PartStats() PartStats {
	s := w.partStats
	for _, p := range w.Procs {
		if p.rel != nil {
			s.PartRetransmits += p.rel.PartRetransmits
		}
	}
	return s
}

// Prequest is a persistent partitioned request (MPI_Psend_init /
// MPI_Precv_init). One Prequest is reused across epochs: Pstart opens an
// epoch by allocating a fresh inner Request (pool-integrated like every
// other request), Pready/Parrived run lock-free against the epoch's
// bitmap, and Pwait (or any Wait-family call on Request()) closes it.
type Prequest struct {
	p    *Proc
	comm *Comm
	send bool
	peer int // comm-local: dst for sends; src (possibly AnySource) for recvs
	wdst int // world rank of the destination (sends only)
	tag  int

	parts    int
	bytesPer int64
	vci      int

	// payload: the user buffer handed to PsendInit; on the receive side,
	// the delivered aggregate once the first segment lands.
	payload interface{}

	// r is the current epoch's inner request, nil before the first
	// Pstart. Partitioned inner requests are never pooled (poolable stays
	// false): the Prequest — and, under faults, per-range retransmit
	// state — keeps reading the object after release, so recycling it
	// into an unrelated operation would dangle this pointer.
	r *Request

	ready   partBitmap // send side: partitions marked ready this epoch
	arrived partBitmap // recv side: partitions landed this epoch

	epochs int64 // completed Pstart count (diagnostics)
}

// Request returns the current epoch's inner request — the handle to pass
// to OnComplete, CompletionQueue.Add or the Wait family for completion
// integration. Nil before the first Pstart.
func (pr *Prequest) Request() *Request { return pr.r }

// Parts returns the partition count.
func (pr *Prequest) Parts() int { return pr.parts }

// BytesPerPartition returns the size of one partition.
func (pr *Prequest) BytesPerPartition() int64 { return pr.bytesPer }

// Data returns the delivered aggregate of a partitioned receive: valid for
// partition i once Parrived(i) reported true, and for the whole buffer
// once the epoch completed.
func (pr *Prequest) Data() interface{} { return pr.payload }

// active reports whether an epoch is open: started and not yet consumed by
// the Wait family.
func (pr *Prequest) active() bool { return pr.r != nil && !pr.r.freed }

// describe renders the request for error messages.
func (pr *Prequest) describe() string {
	dir := "psend"
	if !pr.send {
		dir = "precv"
	}
	return fmt.Sprintf("%s rank %d peer %d tag %d (%d partitions x %d bytes)",
		dir, pr.p.Rank, pr.peer, pr.tag, pr.parts, pr.bytesPer)
}

// raiseCode surfaces a partitioned-usage error (no inner request involved)
// through the communicator's error handler, as Request.raise does.
func (pr *Prequest) raiseCode(code Errcode) error {
	return pr.p.w.raise(pr.comm, &Error{Code: code, Detail: pr.describe()})
}

// pinit validates the shared PsendInit/PrecvInit parameters.
func (pr *Prequest) pinit(c *Comm, tag, parts int, bytesPer int64) {
	if parts <= 0 {
		panic("mpi: partitioned request needs at least one partition")
	}
	if bytesPer <= 0 {
		panic("mpi: partitioned request needs a positive partition size")
	}
	if tag == AnyTag {
		panic("mpi: partitioned requests need a concrete tag (AnyTag cannot name a matching channel)")
	}
	pr.comm = c
	pr.tag = tag
	pr.parts = parts
	pr.bytesPer = bytesPer
	pr.vci = pr.p.selectVCI(c, tag)
}

// PsendInit creates a persistent partitioned send of parts partitions of
// bytesPer bytes each to rank dst. Like MPI_Psend_init it is purely local:
// nothing reaches the wire until an epoch's final Pready. The payload is
// the backing buffer worker threads fill before marking partitions ready.
func (th *Thread) PsendInit(c *Comm, dst, tag, parts int, bytesPer int64, payload interface{}) *Prequest {
	pr := &Prequest{p: th.P, send: true, peer: dst, payload: payload}
	pr.pinit(c, tag, parts, bytesPer)
	if dst == AnySource {
		panic("mpi: PsendInit needs a concrete destination")
	}
	pr.wdst = c.world(dst)
	return pr
}

// PrecvInit creates a persistent partitioned receive matching a PsendInit
// of the same shape on (comm, tag) from src (AnySource allowed). Local,
// like MPI_Precv_init: matching begins at Pstart.
func (th *Thread) PrecvInit(c *Comm, src, tag, parts int, bytesPer int64) *Prequest {
	pr := &Prequest{p: th.P, send: false, peer: src}
	pr.pinit(c, tag, parts, bytesPer)
	return pr
}

// Pstart opens an epoch (MPI_Start on a partitioned request): it allocates
// the epoch's inner request under the shard section, re-arms the readiness
// bitmap, and — on the receive side — posts the request on the partitioned
// matching queue, adopting any arrivals that beat it. Starting an active
// epoch panics (MPI: the previous epoch must be completed first).
func (th *Thread) Pstart(pr *Prequest) {
	p := th.P
	if p != pr.p {
		panic("mpi: Pstart from a thread of another process")
	}
	if pr.active() {
		panic("mpi: Pstart on an active partitioned request (complete the previous epoch first)")
	}
	v := pr.vci
	tel := th.telStart()
	th.mainBegin(v)
	r := p.allocReq(v)
	if pr.send {
		*r = Request{
			p: p, kind: SendReq, dst: pr.wdst, src: p.Rank,
			tag: pr.tag, ctx: pr.comm.ctx, bytes: pr.bytesPer * int64(pr.parts),
			payload: pr.payload, comm: pr.comm, maxBytes: -1, vci: v, part: pr,
		}
		pr.ready.reset(pr.parts)
	} else {
		*r = Request{
			p: p, kind: RecvReq, src: pr.peer, tag: pr.tag, ctx: pr.comm.ctx,
			comm: pr.comm, maxBytes: -1, vci: v, part: pr,
		}
		pr.arrived.reset(pr.parts)
	}
	pr.r = r
	pr.epochs++
	if p.issue(r) {
		// Revoked context or known-dead peer: the epoch failed at issue
		// (fail-fast, ft.go); Parrived and the Wait family surface it.
		th.mainEnd(v)
		th.telCall("Pstart", tel)
		return
	}
	if !pr.send {
		sh := p.vcis[v]
		if !p.adoptPunexp(th, sh, pr, r) {
			sh.pposted = append(sh.pposted, r)
		}
	}
	th.mainEnd(v)
	th.telCall("Pstart", tel)
}

// adoptPunexp folds the earliest matching partitioned-unexpected envelope
// into a freshly started Precv. Reports true when the epoch completed
// immediately (a sealed envelope: every partition had already arrived).
func (p *Proc) adoptPunexp(th *Thread, sh *vciShard, pr *Prequest, r *Request) bool {
	cost := th.cost()
	for i, e := range sh.punexp {
		if e.ctx != pr.comm.ctx || e.tag != pr.tag {
			continue
		}
		if pr.peer != AnySource && e.src != pr.peer {
			continue
		}
		if e.parts != pr.parts || e.bytesPer != pr.bytesPer {
			// Shape mismatch: partitioned matching in this runtime
			// requires identical partitioning on both sides.
			sh.punexp = append(sh.punexp[:i], sh.punexp[i+1:]...)
			r.fail(ErrTruncate, th.S.Now())
			return true
		}
		sh.punexp = append(sh.punexp[:i], sh.punexp[i+1:]...)
		th.S.Sleep(cost.UnexpectedMatchOverhead)
		pr.arrived = e.arrived
		pr.payload = e.payload
		r.bytes = pr.bytesPer * int64(pr.parts)
		if e.sealed {
			th.S.Sleep(cost.CopyTime(r.bytes)) // unexpected buffer -> user buffer
			r.markComplete(th.S.Now())
			return true
		}
		// Partial epoch: the remaining segments land through pposted.
		return false
	}
	return false
}

// Pready marks partition i of an active partitioned send ready
// (MPI_Pready). Every call but the one completing the mask is lock-free:
// two modeled atomics (fetch-or the bit, fetch-add the count), no critical
// section. The completing call triggers the epoch's aggregated transfer
// under the shard section — the single remaining lock acquisition of the
// whole epoch's send path.
//
// Pready before Pstart returns ErrPartInactive; marking a partition twice
// in one epoch returns ErrPartDoubleReady (both through the configured
// error handler).
func (th *Thread) Pready(pr *Prequest, i int) error {
	return th.preadyRange(pr, i, i+1)
}

// PreadyRange marks partitions [lo, hi) ready in one call
// (MPI_Pready_range); same semantics and cost model as Pready, one pair of
// modeled atomics per partition.
func (th *Thread) PreadyRange(pr *Prequest, lo, hi int) error {
	return th.preadyRange(pr, lo, hi)
}

func (th *Thread) preadyRange(pr *Prequest, lo, hi int) error {
	if !pr.send {
		panic("mpi: Pready on a partitioned receive")
	}
	if lo < 0 || hi > pr.parts || lo >= hi {
		panic(fmt.Sprintf("mpi: Pready range [%d,%d) out of [0,%d)", lo, hi, pr.parts))
	}
	if !pr.active() {
		return pr.raiseCode(ErrPartInactive)
	}
	// The lock-free fast path: fetch-or + fetch-add per partition, no
	// critical section, no allocation.
	th.S.Sleep(int64(hi-lo) * 2 * th.cost().AtomicOpCost)
	already, trigger := pr.markReady(lo, hi)
	if already {
		return pr.raiseCode(ErrPartDoubleReady)
	}
	if trigger {
		th.partTrigger(pr)
	}
	return nil
}

// markReady is the readiness transition itself: the bitmap update plus the
// fast/trigger accounting. Everything a non-final Pready executes after
// validation lives here — the hotalloc root below pins it allocation-free,
// and it takes no lock, making the fast path a verified lock-free zone.
//
//simcheck:hotpath Pready readiness transition: every non-final Pready runs only this — lock-free, allocation-free
func (pr *Prequest) markReady(lo, hi int) (already, trigger bool) {
	already, trigger = pr.ready.setRange(lo, hi)
	if already {
		return
	}
	w := pr.p.w
	if trigger {
		w.partStats.PreadyTrigger++
		w.tel.PreadyTrigger()
	} else {
		w.partStats.PreadyFast++
		w.tel.PreadyFast()
	}
	return
}

// partTrigger fires the epoch's aggregated transfer: the final Pready
// enters the shard section once, injects the epoch as one PartData packet
// (fault-free) or as independently-sequenced partition-range segments of
// at most partSegSpan partitions (reliable transport — the unit of
// partition-granularity retransmission), and leaves. TxDone on the last
// segment completes the send request.
func (th *Thread) partTrigger(pr *Prequest) {
	p := th.P
	v := pr.vci
	r := pr.r
	tel := th.telStart()
	th.mainBegin(v)
	if r.complete {
		// The epoch already failed (deadline, dead peer): nothing to
		// inject — the error surfaces through Parrived/Wait.
		th.mainEnd(v)
		th.telCall("Pready", tel)
		return
	}
	span := pr.parts
	if p.rel != nil && span > partSegSpan {
		span = partSegSpan
	}
	for lo := 0; lo < pr.parts; lo += span {
		hi := lo + span
		if hi > pr.parts {
			hi = pr.parts
		}
		pkt := p.w.Fab.AllocPacket()
		*pkt = fabric.Packet{
			Kind: fabric.PartData, Src: p.Rank, Dst: r.dst,
			Bytes: pr.bytesPer * int64(hi-lo), Handle: r,
			Hdr: fabric.Header{
				Rank: pr.comm.rank(p.Rank), Tag: pr.tag, Ctx: pr.comm.ctx,
				Parts: pr.parts, Size: pr.bytesPer, Lo: lo, Hi: hi,
			},
			Payload: pr.payload, VCI: v,
		}
		p.sendShard(th, pkt, hi == pr.parts, r)
	}
	w := p.w
	w.partStats.Aggregates++
	w.partStats.Partitions += int64(pr.parts)
	th.mainEnd(v)
	th.telCall("Pready", tel)
}

// Parrived reports whether partition i of an active partitioned receive
// has landed (MPI_Parrived): one modeled atomic load, no lock, no progress
// loop — arrivals are written at driver level like a NIC DMA. A failed
// epoch (dead peer, timeout) surfaces its error here, through the
// configured handler.
func (th *Thread) Parrived(pr *Prequest, i int) (bool, error) {
	if pr.send {
		panic("mpi: Parrived on a partitioned send")
	}
	if i < 0 || i >= pr.parts {
		panic(fmt.Sprintf("mpi: Parrived partition %d out of [0,%d)", i, pr.parts))
	}
	if !pr.active() {
		return false, pr.raiseCode(ErrPartInactive)
	}
	if pr.r.err != nil {
		return false, pr.r.raise()
	}
	th.S.Sleep(th.cost().AtomicOpCost)
	return pr.arrived.get(i), nil
}

// Pwait completes the current epoch (MPI_Wait on a partitioned request):
// it waits on the inner request, frees it, and leaves the Prequest
// inactive, ready for the next Pstart. Mixing Pwait with a Wait-family
// call on Request() for the same epoch is erroneous.
func (th *Thread) Pwait(pr *Prequest) error {
	if pr.r == nil {
		return pr.raiseCode(ErrPartInactive)
	}
	r := pr.r
	pr.r = nil
	return th.Wait(r)
}

// handlePartData lands a PartData segment at driver level (engine
// context): the simulated NIC writes the partition range straight into the
// matching started Precv — no progress loop, no critical section, which is
// exactly the partitioned fast path's receive side. Segments that beat
// their Precv's Pstart accumulate in the shard's partitioned-unexpected
// queue. The last range of an epoch completes the inner request, waking
// waiters through the normal completion machinery.
func (p *Proc) handlePartData(pkt *fabric.Packet) {
	m := &pkt.Hdr
	now := p.w.Eng.Now()
	sh := p.vcis[pkt.VCI]
	for i, r := range sh.pposted {
		if r.ctx != m.Ctx || r.tag != m.Tag {
			continue
		}
		if r.src != AnySource && r.src != m.Rank {
			continue
		}
		pr := r.part
		if pr.parts != m.Parts || pr.bytesPer != m.Size {
			// Shape mismatch: fail the receive; the epoch cannot land.
			sh.pposted = append(sh.pposted[:i], sh.pposted[i+1:]...)
			r.fail(ErrTruncate, now)
			return
		}
		if pr.arrived.overlaps(m.Lo, m.Hi) {
			// A concurrent same-channel epoch (two live Psends on one
			// (comm, tag, src)): this segment belongs to a later epoch.
			continue
		}
		pr.payload = pkt.Payload
		r.bytes = m.Size * int64(m.Parts)
		if _, full := pr.arrived.setRange(m.Lo, m.Hi); full {
			sh.pposted = append(sh.pposted[:i], sh.pposted[i+1:]...)
			r.markComplete(now)
		}
		return
	}
	// No started Precv yet: accumulate in the partitioned unexpected
	// queue, one envelope per epoch (per-flow FIFO keeps epochs ordered).
	for _, e := range sh.punexp {
		if e.ctx != m.Ctx || e.src != m.Rank || e.tag != m.Tag ||
			e.parts != m.Parts || e.bytesPer != m.Size ||
			e.sealed || e.arrived.overlaps(m.Lo, m.Hi) {
			continue
		}
		e.payload = pkt.Payload
		if _, full := e.arrived.setRange(m.Lo, m.Hi); full {
			e.sealed = true
		}
		return
	}
	e := &penvelope{src: m.Rank, tag: m.Tag, ctx: m.Ctx,
		parts: m.Parts, bytesPer: m.Size, payload: pkt.Payload}
	e.arrived.reset(m.Parts)
	if _, full := e.arrived.setRange(m.Lo, m.Hi); full {
		e.sealed = true
	}
	sh.punexp = append(sh.punexp, e)
}
