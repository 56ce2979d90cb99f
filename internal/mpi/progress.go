package mpi

import (
	"fmt"

	"mpicontend/internal/fabric"
)

// ctsMeta travels with a CTS packet (points back at the receive request the
// payload should land in).
type ctsMeta struct {
	recvReq *Request
}

// maxEventsPerPoll bounds how many completion-queue events one progress
// iteration handles while holding the critical section. MPICH processes a
// small batch per progress call and releases the CS between iterations;
// draining an arbitrary backlog in one hold would suppress exactly the
// lock-cycling dynamics the paper studies.
const maxEventsPerPoll = 2

// pollShard runs one progress iteration on shard v: it polls the shard's
// network completion queue and handles up to maxEventsPerPoll events. Must
// be called with shard v's critical section held; the costs it charges are
// therefore serialized per shard, which is the contention the paper
// studies (and the sharding removes). Under GranLockFree no section is
// held and atomic, the cost of the atomic queue operation, is added to the
// poll and to each handled event; otherwise it is zero.
//
//simcheck:hotpath progress-engine receive path, runs inside the critical section
func (p *Proc) pollShard(th *Thread, v int, atomic int64) {
	cost := th.cost()
	sh := p.vcis[v]
	var pollFrom int64
	if p.w.tel != nil {
		pollFrom = th.S.Now()
	}
	th.S.Sleep(cost.ProgressPollWork + atomic)
	p.Polls++
	handled := 0
	for sh.cq.len() > 0 && handled < maxEventsPerPoll {
		pkt := sh.cq.pop()
		th.S.Sleep(cost.ProgressHandleWork + atomic)
		p.handlePacket(th, pkt)
		if p.rel == nil {
			// Fault-free traffic dies here: every handler branch copies
			// what it keeps (payload refs, envelope fields), and without
			// a fault plane there are no duplicate deliveries or
			// retransmit stashes sharing the struct — so the packet can
			// go back to the fabric pool.
			p.w.Fab.FreePacket(pkt)
		}
		handled++
	}
	if p.w.tel != nil {
		p.w.tel.Poll(th.S.ID(), pollFrom, th.S.Now(), handled)
	}
	if handled > 0 {
		th.pollBackoff = 0
	} else {
		th.pollBackoff++
	}
}

// handlePacket processes one fabric event inside the CS.
func (p *Proc) handlePacket(th *Thread, pkt *fabric.Packet) {
	cost := th.cost()
	now := th.S.Now()
	// This hold advanced the progress engine — the useful/wasted split of
	// the telemetry plane's Fig. 6a report.
	th.holdUseful = true
	switch pkt.Kind {
	case fabric.TxDone:
		// NIC finished injecting a payload: the owning send request is
		// complete (eager: buffer reusable; rendezvous: data shipped).
		// A request already failed by its deadline stays failed.
		req := pkt.Handle.(*Request)
		if !req.complete {
			req.markComplete(now)
		}

	case fabric.Eager:
		h := &pkt.Hdr
		if r := p.matchPostedShard(th, pkt.VCI, h.Rank, h.Tag, h.Ctx); r != nil {
			if r.maxBytes >= 0 && pkt.Bytes > r.maxBytes {
				r.fail(ErrTruncate, now)
				p.PostedHits++
				break
			}
			th.S.Sleep(cost.CopyTime(pkt.Bytes)) // copy into the user buffer
			r.deliver(pkt.Payload, th.S.Now())
			p.PostedHits++
		} else {
			// Buffer into the unexpected queue (allocate + temp copy).
			th.S.Sleep(cost.UnexpectedOverhead + cost.CopyTime(pkt.Bytes))
			p.vcis[pkt.VCI].queueUnexpected(envelope{
				src: h.Rank, tag: h.Tag, ctx: h.Ctx,
				bytes: pkt.Bytes, payload: pkt.Payload,
				arrivedAt: th.S.Now(), vci: pkt.VCI,
			})
		}

	case fabric.RTS:
		h := &pkt.Hdr
		if r := p.matchPostedShard(th, pkt.VCI, h.Rank, h.Tag, h.Ctx); r != nil {
			p.PostedHits++
			r.bytes = h.Size
			if r.maxBytes >= 0 && h.Size > r.maxBytes {
				// Truncation: fail the receive but still clear the sender
				// to send so it drains; the RData handler drops the
				// payload of a completed request.
				r.fail(ErrTruncate, now)
			}
			cts := p.w.Fab.AllocPacket()
			*cts = fabric.Packet{
				Kind: fabric.CTS, Src: p.Rank, Dst: pkt.Src,
				Handle: pkt.Handle, Meta: ctsMeta{recvReq: r},
				VCI: pkt.VCI,
			}
			p.sendShard(th, cts, false, nil)
		} else {
			p.vcis[pkt.VCI].queueUnexpected(envelope{
				src: h.Rank, tag: h.Tag, ctx: h.Ctx,
				bytes: h.Size, rndv: true,
				senderReq: pkt.Handle.(*Request), arrivedAt: now,
				vci: pkt.VCI,
			})
		}

	case fabric.CTS:
		// Our RTS was matched: ship the payload. Sender request
		// completes when injection finishes (TxDone). A sender already
		// failed by its deadline still drains the transfer (the receiver
		// expects the data), so no guard here.
		sreq := pkt.Handle.(*Request)
		rdata := p.w.Fab.AllocPacket()
		*rdata = fabric.Packet{
			Kind: fabric.RData, Src: p.Rank, Dst: sreq.dst,
			Bytes: sreq.bytes, Handle: sreq, Meta: pkt.Meta,
			Payload: sreq.payload, VCI: pkt.VCI,
		}
		p.sendShard(th, rdata, true, sreq)

	case fabric.RData:
		// Rendezvous payload lands directly in the posted buffer — unless
		// the receive already completed (deadline timeout or truncation),
		// in which case the payload is dropped.
		r := pkt.Meta.(ctsMeta).recvReq
		if !r.complete {
			r.deliver(pkt.Payload, now)
		}

	case fabric.RMAPut, fabric.RMAGet, fabric.RMAGetReply, fabric.RMAAcc, fabric.RMAAck:
		p.handleRMA(th, pkt)

	case fabric.Revoke:
		// A peer revoked a communicator (ULFM, ulfm.go). Apply it and
		// re-flood once, so revocation completes even if the initiator
		// died mid-broadcast.
		p.revokeFrom(pkt.Meta.(revokeMeta), now)

	default:
		panic(fmt.Sprintf("mpi: unhandled packet kind %v", pkt.Kind))
	}

	// Reliable mode: acknowledge the packet only now that the progress
	// loop actually processed it — a starved critical section ACKs late
	// and draws retransmits (see transport.go).
	if pkt.Rel && p.rel != nil {
		p.rel.ackDelivered(pkt)
	}
}

// revokeFrom applies a revocation received from a peer and re-floods it
// once, unless this process already observed it.
func (p *Proc) revokeFrom(m revokeMeta, now int64) {
	if p.ft == nil || p.ft.revoked[m.ctx] {
		return
	}
	size := len(m.ranks)
	if m.ranks == nil {
		size = len(p.w.Procs)
	}
	p.applyRevoke(m.ctx, now)
	p.floodRevoke(m.ctx, m.ranks, size)
}

// matchPostedShard scans shard v's posted queue for a receive matching the
// arrival, charging the per-item search cost, and removes and returns the
// match. Cross-posted wildcard receives (irecvWild) are handled here: a
// wildcard satisfied on another shard — or cancelled — is a tombstone and
// is pruned for free during the scan; a live wildcard that matches is
// bound to this shard (its copies elsewhere become tombstones).
func (p *Proc) matchPostedShard(th *Thread, v int, src, tag, ctx int) *Request {
	cost := th.cost()
	sh := p.vcis[v]
	scanned := 0
	for i := 0; i < len(sh.posted); {
		r := sh.posted[i]
		if r.wild && (r.complete || r.freed || (r.vci >= 0 && r.vci != v)) {
			sh.posted = append(sh.posted[:i], sh.posted[i+1:]...)
			continue
		}
		scanned++
		if matchesRecv(r, src, tag, ctx) {
			// Dequeue before charging time: the scan+remove is one
			// atomic operation even in the lock-free granularity.
			sh.posted = append(sh.posted[:i], sh.posted[i+1:]...)
			th.S.Sleep(cost.QueueSearchPerItem * int64(scanned))
			if r.wild {
				r.vci = v
			}
			return r
		}
		i++
	}
	th.S.Sleep(cost.QueueSearchPerItem * int64(scanned+1))
	return nil
}

// matchUnexpectedShard scans shard v's unexpected queue for a message
// satisfying the receive (src, tag, ctx), charging search cost, removing
// the hit.
func (p *Proc) matchUnexpectedShard(th *Thread, v int, src, tag, ctx int) *envelope {
	cost := th.cost()
	sh := p.vcis[v]
	for i, e := range sh.unexp {
		if e.matches(src, tag, ctx) {
			sh.unexp = append(sh.unexp[:i], sh.unexp[i+1:]...)
			th.S.Sleep(cost.QueueSearchPerItem * int64(i+1))
			p.UnexpectedHits++
			if p.w.tel != nil {
				p.w.tel.Unexpected(th.S.Now() - e.arrivedAt)
			}
			return e
		}
	}
	th.S.Sleep(cost.QueueSearchPerItem * int64(len(sh.unexp)+1))
	return nil
}

// progressYield is the non-critical gap between progress-loop iterations
// (the window in which other threads may win the lock): at full spinning
// speed this is just the loop overhead, which is what lets a mutex holder
// re-acquire before remote threads observe the release. Only after a long
// streak of empty polls (an idle network, e.g. during a large rendezvous
// transfer) does it back off geometrically, keeping simulated spinning
// cheap without perturbing the contention dynamics under load.
func (th *Thread) progressYield() {
	th.checkCrashed()
	cost := th.cost()
	p := th.P
	if p.w.Cfg.Progress == ProgressSelective && th.pollBackoff > 0 {
		// Selective wake-up (§9): the last poll found nothing, so
		// park until an arrival or completion wakes us. The emptiness
		// check is adjacent to the park (no virtual-time gap), so no
		// wake-up can be lost.
		if p.cqEmpty() {
			p.activity.Wait(th.S)
		}
		th.pollBackoff = 0
		th.S.Sleep(cost.ProgressLoopOverhead)
		return
	}
	base := cost.ProgressLoopOverhead
	if j := cost.YieldJitter; j > 0 {
		base += th.P.w.Eng.Rand().Int63n(j + 1)
	}
	if s := th.pollBackoff - emptyPollGrace; s > 0 && !th.noBackoff {
		if s > 6 {
			s = 6
		}
		base <<= uint(s)
	}
	th.S.Sleep(base)
}

// emptyPollGrace is how many consecutive empty polls a spinning thread
// tolerates before backing off its loop.
const emptyPollGrace = 16
