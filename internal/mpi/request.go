package mpi

import "mpicontend/internal/sim"

// ReqKind distinguishes request flavours.
type ReqKind int

const (
	// SendReq is a two-sided send request.
	SendReq ReqKind = iota
	// RecvReq is a two-sided receive request.
	RecvReq
	// RMAReq is a one-sided operation in flight.
	RMAReq
)

// String names the request kind.
func (k ReqKind) String() string {
	switch k {
	case SendReq:
		return "send"
	case RecvReq:
		return "recv"
	case RMAReq:
		return "rma"
	default:
		return "unknown"
	}
}

// Request is an MPI request object. Its lifecycle follows the paper's
// Fig. 3b state diagram: issued -> (posted) -> completed -> freed. A
// request that is completed but not yet freed is "dangling" (§4.4).
type Request struct {
	p    *Proc
	kind ReqKind

	src, dst int // peer ranks (src for recv matching, dst for send)
	tag      int
	ctx      int
	bytes    int64

	payload interface{} // send payload
	// buf is the caller's receive slot (receives and gets): a successful
	// completion writes the payload there (deliver); nil when the caller
	// does not want it.
	buf *interface{}

	complete    bool
	freed       bool
	completedAt sim.Time

	// send protocol state
	rndv bool

	// rma op state
	win *Win

	// comm the request was issued on (nil for RMA ops); resolves the
	// error handler.
	comm *Comm
	// maxBytes bounds the receive buffer (IrecvN); -1 means unbounded.
	maxBytes int64
	// err records the failure that completed the request, if any.
	err *Error
	// deadline is the armed per-request timeout (reliable mode only).
	deadline sim.Timer

	// poolable marks requests whose object provably dies at release time,
	// so it may go back to its shard's pool (errored requests never do).
	// It is set once, at issue (Proc.issue), for every kind: a receive or
	// get delivers into the caller's slot, so nothing reads the object
	// after the wait that consumed it. Reliable-mode requests are excluded
	// because retransmit state may still reference them; cross-VCI
	// wildcard receives because their tombstone copies outlive them;
	// partitioned inner requests because their Prequest keeps reading them.
	poolable bool
	// pooled marks an object on its shard's free list, so the exported
	// accessors can catch a handle used after its wait recycled it.
	pooled bool
	// nextFree links the shard's request free list while pooled.
	nextFree *Request

	// cq, when non-nil, delivers the completed request onto the waiting
	// thread's completion queue (continuation-mode Waitall, progressd.go);
	// the runtime frees it at delivery.
	cq *completionQueue

	// vci is the virtual communication interface the request lives on
	// (always 0 on a one-shard proc). A cross-VCI wildcard receive
	// starts at -1 (posted on every shard) and is bound to the shard that
	// matches it.
	vci int
	// wild marks a cross-VCI wildcard receive (irecvWild): the request is
	// cross-posted to every shard's posted queue, and copies left on other
	// shards after it matches are tombstones pruned during later scans.
	wild bool
	// part links the inner request of a partitioned epoch back to its
	// persistent Prequest (partitioned.go); nil for ordinary requests.
	// Partitioned receives live on vciShard.pposted, not posted.
	part *Prequest
}

// live panics when r was recycled: its Wait or Test consumed it and the
// object sits in the pool, or already serves a later request.
func (r *Request) live() *Request {
	if r.pooled {
		panic("mpi: request used after its Wait/Test recycled it")
	}
	return r
}

// Err returns the error that failed the request, or nil. Valid once the
// request completed (after Test returns true or Wait returns). Errored
// requests are never recycled, so Err stays readable after the wait.
func (r *Request) Err() error {
	if r.live().err == nil {
		return nil
	}
	return r.err
}

// Complete reports whether the request has completed.
func (r *Request) Complete() bool { return r.live().complete }

// Freed reports whether the request was freed.
func (r *Request) Freed() bool { return r.live().freed }

// Kind returns the request kind.
func (r *Request) Kind() ReqKind { return r.live().kind }

// deliver completes a successful receive or get: the payload lands in the
// caller's slot, as MPI fills the receive buffer, before markComplete
// runs any completion-queue delivery. Must run in engine or CS context.
func (r *Request) deliver(payload interface{}, at sim.Time) {
	if r.buf != nil {
		*r.buf = payload
	}
	r.markComplete(at)
}

// markComplete transitions the request to the completed state; it becomes
// dangling until freed. Must run in engine or CS context.
//
//simcheck:hotpath request-completion path, runs once per message
func (r *Request) markComplete(at sim.Time) {
	if r.complete {
		panic("mpi: request completed twice")
	}
	r.complete = true
	r.completedAt = at
	r.deadline.Cancel()
	r.p.w.danglingNow++
	r.p.danglingNow++
	r.p.w.completedTotal++
	if w := r.p.w; w.tel != nil {
		w.tel.Dangling(at, int64(w.danglingNow))
	}
	if r.p.w.eventDriven() {
		// Strong/continuation progress (progressd.go): bump the proc's
		// completion sequence (closes the check-then-park window of the
		// wait engine, wait.go) and run any completion-queue delivery from
		// right here — the completing context.
		r.p.completeSeq++
		if r.cq != nil {
			r.deliverCQ(at)
		}
	}
	if r.p.w.Cfg.Progress != ProgressPolling {
		// Every mode but plain polling parks threads that completions
		// must wake: selective pollers and event-mode waiters.
		r.p.activity.WakeAll(at)
	}
}

// deliverCQ hands the completed request to its completion queue: the
// runtime frees it here, in the completing context, and the drain side
// reads its error and pools it afterwards (waitallCont; a receive's
// payload is already in its slot).
func (r *Request) deliverCQ(at sim.Time) {
	q := r.cq
	r.cq = nil
	r.free()
	q.push(r, at)
}

// fail completes the request unsuccessfully with the given error class.
// A timed-out receive is withdrawn from the posted queue so a later
// arrival cannot match (and double-complete) it. No-op if the request
// already completed or was freed. Must run in engine or CS context.
func (r *Request) fail(code Errcode, at sim.Time) {
	if r.complete || r.freed {
		return
	}
	//simcheck:allow hotalloc error construction runs once per failed request, not per message
	r.err = &Error{Code: code, Detail: r.describe()}
	if r.kind == RecvReq {
		p := r.p
		if r.part != nil {
			// Partitioned receives post on the partitioned queue.
			sh := p.vcis[r.vci]
			sh.pposted = dropReq(sh.pposted, r)
		} else {
			p.unpost(r)
		}
	}
	r.p.w.requestFailures++
	r.markComplete(at)
	// Failed requests must wake their waiters in every progress mode:
	// completion polling notices on the next progress round, but parked
	// threads need the nudge.
	r.p.activity.WakeAll(at)
}

// dropReq removes the first occurrence of r from q, keeping the order of
// the rest.
func dropReq(q []*Request, r *Request) []*Request {
	for i, x := range q {
		if x == r {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// unpost withdraws a posted receive from its shard's posted queue, or every
// cross-posted copy of an unbound wildcard.
func (p *Proc) unpost(r *Request) {
	if r.wild && r.vci < 0 {
		for _, sh := range p.vcis {
			sh.posted = dropReq(sh.posted, r)
		}
		return
	}
	sh := p.vcis[r.vci]
	sh.posted = dropReq(sh.posted, r)
}

// free releases a completed request. Must be called with the CS held.
func (r *Request) free() {
	if !r.complete {
		panic("mpi: freeing incomplete request")
	}
	if r.freed {
		panic("mpi: request freed twice")
	}
	r.freed = true
	r.p.w.danglingNow--
	r.p.danglingNow--
	r.p.outstanding--
	if w := r.p.w; w.tel != nil {
		w.tel.Dangling(w.Eng.Now(), int64(w.danglingNow))
	}
	if r.win != nil {
		r.win.pending--
	}
}

// envelope is an entry of the unexpected-message queue: a message (eager,
// with buffered payload) or a rendezvous RTS that arrived before a matching
// receive was posted.
type envelope struct {
	src, tag, ctx int
	bytes         int64
	payload       interface{}
	rndv          bool
	senderReq     *Request // rendezvous: origin request to CTS back to
	arrivedAt     sim.Time
	vci           int // shard the message arrived on (0 on a one-shard proc)

	// nextFree links the shard's envelope free list while pooled.
	nextFree *envelope
}

// matches reports whether the envelope satisfies a receive for (src, tag,
// ctx) honouring wildcards.
func (e *envelope) matches(src, tag, ctx int) bool {
	if e.ctx != ctx {
		return false
	}
	if src != AnySource && e.src != src {
		return false
	}
	if tag != AnyTag && e.tag != tag {
		return false
	}
	return true
}

// matchesRecv reports whether a posted receive r accepts an arrival from
// (src, tag, ctx).
func matchesRecv(r *Request, src, tag, ctx int) bool {
	if r.ctx != ctx {
		return false
	}
	if r.src != AnySource && r.src != src {
		return false
	}
	if r.tag != AnyTag && r.tag != tag {
		return false
	}
	return true
}
