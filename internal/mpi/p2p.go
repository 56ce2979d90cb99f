package mpi

import (
	"mpicontend/internal/fabric"
	"mpicontend/internal/simlock"
)

// Isend starts a nonblocking send of a message with the given payload and
// size to rank dst. Small messages go eagerly; large ones use rendezvous.
// The main path runs inside the global critical section at high priority.
//
//simcheck:hotpath every send; the request and packet come from pools and the header is a value
func (th *Thread) Isend(c *Comm, dst, tag int, bytes int64, payload interface{}) *Request {
	p := th.P
	cost := th.cost()
	worldDst := c.world(dst)
	v := p.selectVCI(c, tag)
	tel := th.telStart()
	th.mainBegin(v)
	r := p.allocReq(v)
	*r = Request{
		p: p, kind: SendReq, dst: worldDst, src: p.Rank,
		tag: tag, ctx: c.ctx, bytes: bytes, payload: payload,
		comm: c, maxBytes: -1, vci: v,
	}
	if p.issue(r) {
		// Revoked context or known-dead peer: the request failed at issue
		// and nothing reaches the wire (fail-fast, ft.go).
		th.mainEnd(v)
		th.telCall("Isend", tel)
		return r
	}
	hdr := fabric.Header{Rank: c.rank(p.Rank), Tag: tag, Ctx: c.ctx, Size: bytes}
	if bytes <= cost.EagerThreshold {
		pkt := p.w.Fab.AllocPacket()
		*pkt = fabric.Packet{
			Kind: fabric.Eager, Src: p.Rank, Dst: worldDst,
			Bytes: bytes, Handle: r, Hdr: hdr, Payload: payload,
			VCI: v,
		}
		p.sendShard(th, pkt, true, r)
	} else {
		r.rndv = true
		pkt := p.w.Fab.AllocPacket()
		*pkt = fabric.Packet{
			Kind: fabric.RTS, Src: p.Rank, Dst: worldDst, Handle: r, Hdr: hdr,
			VCI: v,
		}
		p.sendShard(th, pkt, false, r)
	}
	th.mainEnd(v)
	th.telCall("Isend", tel)
	return r
}

// Irecv posts a nonblocking receive for (src, tag) on the communicator
// whose payload the caller does not want: IrecvN(c, src, tag, -1, nil).
// If a matching message already sits in the unexpected queue it is consumed
// immediately (the Fig. 3b "found in unexpected queue" transition).
func (th *Thread) Irecv(c *Comm, src, tag int) *Request {
	return th.IrecvN(c, src, tag, -1, nil)
}

// IrecvN posts a receive with a receive buffer: a successful completion
// writes the payload to *buf (nil means the payload is not wanted), as
// MPI fills the buffer given at post time; a truncated or failed receive
// leaves *buf untouched. The request is dead once a wait or a successful
// test consumed it, and its object goes back to the pool. A matching
// message larger than maxBytes fails the request with MPI_ERR_TRUNCATE
// (the transfer still drains, like MPICH's truncating receive, so the
// sender is not wedged). maxBytes < 0 means unbounded.
//
//simcheck:hotpath every receive post; requests and envelopes come from the shard's pools
func (th *Thread) IrecvN(c *Comm, src, tag int, maxBytes int64, buf *interface{}) *Request {
	p := th.P
	if p.vciWildcard(tag) {
		// AnyTag under a tag-hashed mapping cannot name one shard: take
		// the deterministic cross-VCI wildcard path.
		return th.irecvWild(c, src, tag, maxBytes, buf)
	}
	v := p.selectVCI(c, tag)
	tel := th.telStart()
	th.mainBegin(v)
	r := p.allocReq(v)
	*r = Request{p: p, kind: RecvReq, src: src, tag: tag, ctx: c.ctx,
		comm: c, maxBytes: maxBytes, buf: buf, vci: v}
	if p.issue(r) {
		th.mainEnd(v)
		th.telCall("Irecv", tel)
		return r
	}
	if e := p.matchUnexpectedShard(th, v, src, tag, c.ctx); e != nil {
		p.recvUnexpected(th, r, e)
	} else {
		p.vcis[v].post(r)
	}
	th.mainEnd(v)
	th.telCall("Irecv", tel)
	return r
}

// recvUnexpected completes the receive r from the unexpected envelope e it
// matched, which is already out of its queue, and returns e to its
// shard's pool.
func (p *Proc) recvUnexpected(th *Thread, r *Request, e *envelope) {
	cost := th.cost()
	th.S.Sleep(cost.UnexpectedMatchOverhead)
	r.bytes = e.bytes
	truncated := r.maxBytes >= 0 && e.bytes > r.maxBytes
	if e.rndv {
		// Late match of a rendezvous RTS: clear the sender to send.
		// On truncation the CTS still goes out so the sender drains
		// and completes; the guarded RData handler drops the payload.
		if truncated {
			r.fail(ErrTruncate, th.S.Now())
		}
		pkt := p.w.Fab.AllocPacket()
		*pkt = fabric.Packet{
			Kind: fabric.CTS, Src: p.Rank, Dst: e.src,
			Handle: e.senderReq, Meta: ctsMeta{recvReq: r},
			VCI: e.vci,
		}
		p.sendShard(th, pkt, false, nil)
	} else if truncated {
		r.fail(ErrTruncate, th.S.Now())
	} else {
		th.S.Sleep(cost.CopyTime(e.bytes)) // unexpected buffer -> user buffer
		r.deliver(e.payload, th.S.Now())
	}
	p.vcis[e.vci].freeEnvelope(e)
}

// irecvWild posts a cross-VCI wildcard receive: the request is posted on
// every shard's queue under all shard locks (ascending order), after a
// deterministic earliest-arrival scan of every shard's unexpected queue.
// The request object comes from shard 0's pool and is never recycled
// (Request.poolable), so it provably outlives its tombstone copies on
// unmatched shards.
func (th *Thread) irecvWild(c *Comm, src, tag int, maxBytes int64, buf *interface{}) *Request {
	p := th.P
	cost := th.cost()
	tel := th.telStart()
	th.wildBegin()
	r := p.allocReq(0)
	*r = Request{p: p, kind: RecvReq, src: src, tag: tag, ctx: c.ctx,
		comm: c, maxBytes: maxBytes, buf: buf, vci: -1, wild: true}
	if p.issue(r) {
		th.wildEnd()
		th.telCall("Irecv", tel)
		return r
	}
	// Earliest matching arrival across all shards wins (virtual arrival
	// time, shard index breaking ties) — the same total order a single
	// unexpected queue would have produced. Within one shard the queue is
	// arrival-ordered, so its first match is its earliest.
	bestShard, bestIdx := -1, -1
	for v, sh := range p.vcis {
		for i, e := range sh.unexp {
			if e.matches(src, tag, c.ctx) {
				if bestShard < 0 || e.arrivedAt < p.vcis[bestShard].unexp[bestIdx].arrivedAt {
					bestShard, bestIdx = v, i
				}
				break
			}
		}
		th.S.Sleep(cost.QueueSearchPerItem * int64(len(sh.unexp)+1))
	}
	if bestShard >= 0 {
		sh := p.vcis[bestShard]
		e := sh.unexp[bestIdx]
		sh.unexp = append(sh.unexp[:bestIdx], sh.unexp[bestIdx+1:]...)
		p.UnexpectedHits++
		if p.w.tel != nil {
			p.w.tel.Unexpected(th.S.Now() - e.arrivedAt)
		}
		r.vci = bestShard
		p.recvUnexpected(th, r, e)
	} else {
		// No arrival yet: cross-post to every shard so whichever shard the
		// message lands on can match it; the other copies become
		// tombstones once bound.
		for _, sh := range p.vcis {
			sh.post(r)
		}
	}
	th.wildEnd()
	th.telCall("Irecv", tel)
	return r
}

// CancelRecv cancels a posted receive that has not matched, removing it
// from the posted queue and releasing the request (MPI_Cancel semantics for
// receives). It panics if the request already completed — the caller must
// check Complete() first, inside its own synchronization.
func (th *Thread) CancelRecv(r *Request) {
	if r.kind != RecvReq {
		panic("mpi: CancelRecv on a non-receive request")
	}
	// withdraw runs inside the section; it reports whether r was still
	// pending.
	withdraw := func() bool {
		th.S.Sleep(th.cost().RequestFreeWork)
		if r.complete {
			return false
		}
		th.P.unpost(r)
		r.deadline.Cancel()
		r.freed = true
		th.P.outstanding--
		return true
	}
	var pending bool
	if r.wild && r.vci < 0 {
		// Unbound wildcard: withdraw every cross-posted copy under all
		// shard locks.
		th.wildBegin()
		pending = withdraw()
		th.wildEnd()
	} else {
		v := reqShard(r)
		th.stateBegin(v, simlock.High)
		pending = withdraw()
		th.stateEnd(v, simlock.High)
	}
	if !pending {
		panic("mpi: CancelRecv on a completed request")
	}
}

// Send is a blocking send (Isend + Wait).
func (th *Thread) Send(c *Comm, dst, tag int, bytes int64, payload interface{}) {
	th.Wait(th.Isend(c, dst, tag, bytes, payload)) //simcheck:allow errdrop blocking Send has no error result; the handler runs inside Wait
}

// Recv is a blocking receive (IrecvN + Wait); it returns the payload. The
// request never leaves the runtime, so its object goes back to the pool.
//
//simcheck:hotpath blocking receive: issue, wait and recycle allocate nothing once the pools are warm
func (th *Thread) Recv(c *Comm, src, tag int) interface{} {
	data, _ := th.recvE(c, src, tag) // the handler ran inside Wait
	return data
}

// recvE is a blocking receive returning the payload or the request error.
// The payload lands in the thread's scratch slot, read and cleared right
// after the wait: a local slot would escape to the heap.
func (th *Thread) recvE(c *Comm, src, tag int) (interface{}, error) {
	err := th.Wait(th.IrecvN(c, src, tag, -1, &th.slot))
	data := th.slot
	th.slot = nil
	return data, err
}

// sendrecvE concurrently sends to dst and receives from src, blocking
// until both complete, and returns the received payload (MPI_Sendrecv
// with error propagation): both requests are always waited for; the first
// error is returned. The payload lands in the thread's scratch slot, as
// in recvE.
func (th *Thread) sendrecvE(c *Comm, dst, dtag int, bytes int64, payload interface{},
	src, stag int) (interface{}, error) {
	rr := th.IrecvN(c, src, stag, -1, &th.slot)
	sr := th.Isend(c, dst, dtag, bytes, payload)
	err := th.Waitall([]*Request{sr, rr})
	data := th.slot
	th.slot = nil
	if err != nil {
		return nil, err
	}
	return data, nil
}
