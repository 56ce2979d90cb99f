package mpi

// This file implements the ULFM-style recovery primitives on
// communicators: Revoke (in-band revocation interrupting blocked waits and
// collectives with ErrRevoked) and Shrink (a sim-time consensus over the
// surviving members, then deterministic surviving-rank renumbering onto a
// fresh context). Both require the fault-tolerance plane
// (a configured crash schedule, see ft.go) and are single-threaded per
// process: at most one thread per rank may run them at a time, the way
// production recovery code funnels through one coordinator thread.

import (
	"fmt"

	"mpicontend/internal/fabric"
)

// agreeBase reserves a context range for the recovery protocol itself,
// disjoint from user contexts (>= 0) and collective shadows (collCtx - c).
// Shrink must keep working on a revoked communicator, so its traffic runs
// on agreeBase - c.ctx, which applyRevoke never marks.
const agreeBase = -1_000_000

// Tags of the recovery protocol messages.
const (
	tagAgreeContrib = 1
	tagAgreeResult  = 2
)

// revokeMeta travels with Revoke packets: the revoked user context plus
// the member world ranks (nil = the world communicator), so receivers can
// re-flood the revocation even if the initiator dies mid-broadcast.
type revokeMeta struct {
	ctx   int
	ranks []int
}

// agreeResult is the root's decision, broadcast to every contributor.
type agreeResult struct {
	// ctx is the fresh context of the shrunk communicator.
	ctx int
	// survivors lists the contributing members as communicator-local
	// ranks of the original comm, ascending.
	survivors []int
}

// recoveryComm returns the shadow communicator the recovery protocol runs
// on: same group, reserved context, errors returned (never fatal) so the
// protocol can observe ErrProcFailed and route around it.
func (c *Comm) recoveryComm() *Comm {
	return &Comm{w: c.w, ctx: agreeBase - c.ctx, size: c.size, ranks: c.ranks,
		errhandler: ErrorsReturn, vcihint: c.vcihint}
}

// requireFT panics unless the fault-tolerance plane is armed.
func (th *Thread) requireFT(op string) {
	if th.P.ft == nil {
		panic("mpi: " + op + " requires the fault-tolerance plane (configure a crash schedule)")
	}
}

// Revoke marks the communicator revoked everywhere: locally at once, on
// every reachable member via an in-band Revoke packet. Revocation fails
// every in-flight request on the communicator (and its collective shadow)
// with ErrRevoked — interrupting peers blocked in Wait or a collective —
// and makes every later operation on it fail fast. Receivers re-flood the
// revocation, so it survives the initiator's own death mid-broadcast.
// Idempotent; like MPI_Comm_revoke it has no failure mode of its own.
func (th *Thread) Revoke(c *Comm) {
	th.requireFT("Revoke")
	p := th.P
	tel := th.telStart()
	th.BeginErrPath()
	th.mainBegin(0)
	if !p.ft.revoked[c.ctx] {
		p.w.ft.revokes++
		p.applyRevoke(c.ctx, th.S.Now())
		p.floodRevoke(c.ctx, c.ranks, c.size)
	}
	th.mainEnd(0)
	th.EndErrPath()
	th.telCall("Revoke", tel)
}

// Revoked reports whether this process has observed a revocation of c.
func (th *Thread) Revoked(c *Comm) bool {
	return th.P.ft != nil && th.P.ft.revoked[c.ctx]
}

// Failed returns the communicator-local ranks this process currently
// believes dead, ascending (the ULFM failure_ack/get_acked pair collapsed
// into one query — local knowledge, not consensus; peers may disagree
// until a Shrink round). Nil without the fault-tolerance plane.
func (th *Thread) Failed(c *Comm) []int {
	ft := th.P.ft
	if ft == nil {
		return nil
	}
	var out []int
	for i := 0; i < c.size; i++ {
		if ft.isDead(c.world(i)) {
			out = append(out, i)
		}
	}
	return out
}

// applyRevoke records the revocation locally and fails every in-flight
// request on the revoked context or its collective shadow. Engine or CS
// context.
func (p *Proc) applyRevoke(ctx int, now int64) {
	p.ft.revoked[ctx] = true
	p.ft.revoked[collCtx-ctx] = true
	//simcheck:allow hotalloc revocation path, runs once per revoked context
	p.ft.sweep(now, func(r *Request) bool {
		return r.ctx == ctx || r.ctx == collCtx-ctx
	}, ErrRevoked)
	p.activity.WakeAll(now)
}

// floodRevoke sends a Revoke packet to every member not known dead. Sent
// through the reliable transport, so single losses cannot mask a
// revocation.
func (p *Proc) floodRevoke(ctx int, ranks []int, size int) {
	for i := 0; i < size; i++ {
		wr := i
		if ranks != nil {
			wr = ranks[i]
		}
		if wr == p.Rank || p.ft.isDead(wr) {
			continue
		}
		pkt := p.w.Fab.AllocPacket()
		*pkt = fabric.Packet{Kind: fabric.Revoke, Src: p.Rank, Dst: wr,
			Meta: revokeMeta{ctx: ctx, ranks: ranks}}
		p.send(pkt, false, nil)
	}
}

// Shrink builds a new communicator over the surviving members
// (MPI_Comm_shrink): one consensus round determines the survivor set, the
// round's root allocates a fresh matching context, and every survivor
// renumbers deterministically — members keep their relative order, ranks
// compact to 0..n-1.
func (th *Thread) Shrink(c *Comm) (*Comm, error) {
	th.requireFT("Shrink")
	tel := th.telStart()
	th.BeginErrPath()
	th.P.w.ft.shrinks++
	res, err := th.agreeRound(c)
	th.EndErrPath()
	th.telCall("Shrink", tel)
	if err != nil {
		return nil, err
	}
	ranks := make([]int, len(res.survivors))
	for i, lr := range res.survivors {
		ranks[i] = c.world(lr)
	}
	return &Comm{w: c.w, ctx: res.ctx, size: len(ranks), ranks: ranks}, nil
}

// agreeRound is Shrink's consensus on the survivor set. The root is the
// lowest member this process believes alive; it collects one contribution
// from every member it believes alive, allocates a fresh context, and
// replies to every contributor. Non-roots contribute and wait for the
// decision; when the root dies mid-protocol (ErrProcFailed), they
// recompute the root from their updated failure knowledge and retry —
// detection latency bounds every retry.
func (th *Thread) agreeRound(c *Comm) (agreeResult, error) {
	p := th.P
	rc := c.recoveryComm()
	me := c.Rank(th)
	if me < 0 {
		panic("mpi: Shrink by non-member")
	}
	for {
		root := -1
		for i := 0; i < c.size; i++ {
			if !p.ft.isDead(c.world(i)) {
				root = i
				break
			}
		}
		if root < 0 {
			return agreeResult{}, &Error{Code: ErrProcFailed,
				Detail: fmt.Sprintf("agree on ctx %d: no live members", c.ctx)}
		}
		if root == me {
			return th.agreeRoot(c, rc, me)
		}
		// The contribution carries no data: arriving is the vote.
		if err := th.sendE(rc, root, tagAgreeContrib, 8, nil); err != nil {
			if isProcFailed(err) {
				continue // root died before hearing us: re-elect
			}
			return agreeResult{}, err
		}
		v, err := th.recvE(rc, root, tagAgreeResult)
		if err != nil {
			if isProcFailed(err) {
				continue // root died before deciding: re-elect
			}
			return agreeResult{}, err
		}
		return v.(agreeResult), nil
	}
}

// agreeRoot runs the root side of one consensus round.
func (th *Thread) agreeRoot(c *Comm, rc *Comm, me int) (agreeResult, error) {
	p := th.P
	res := agreeResult{survivors: []int{me}}
	for i := 0; i < c.size; i++ {
		if i == me || p.ft.isDead(c.world(i)) {
			continue
		}
		if _, err := th.recvE(rc, i, tagAgreeContrib); err != nil {
			if isProcFailed(err) {
				continue // the member died; it is simply not a survivor
			}
			return agreeResult{}, err
		}
		res.survivors = append(res.survivors, i)
	}
	sortInts(res.survivors)
	res.ctx = p.w.allocCtx()
	for _, i := range res.survivors {
		if i == me {
			continue
		}
		if err := th.sendE(rc, i, tagAgreeResult, 16, res); err != nil && !isProcFailed(err) {
			return agreeResult{}, err
		}
		// A survivor that died after contributing is unreachable; its
		// ErrProcFailed is ignored — a later Shrink round excludes it.
	}
	return res, nil
}

// sendE is a blocking send that returns the request's error (the caller's
// communicator must use ErrorsReturn for a non-panicking error path).
func (th *Thread) sendE(c *Comm, dst, tag int, bytes int64, payload interface{}) error {
	return th.Wait(th.Isend(c, dst, tag, bytes, payload))
}

// isProcFailed reports whether err is an ErrProcFailed request error.
func isProcFailed(err error) bool {
	e, ok := err.(*Error)
	return ok && e.Code == ErrProcFailed
}

// sortInts sorts ascending (tiny slices; avoids pulling sort into the
// protocol hot path signature).
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// collCheck is the collective-entry liveness and revocation check: a
// collective over a communicator with a revoked context fails with
// ErrRevoked, one with a member this process believes dead fails with
// ErrProcFailed — failing fast instead of hanging in a dissemination
// round that can never complete. The failure goes through the
// communicator's error handler, so a fatal handler panics at entry. Nil
// without the fault-tolerance plane.
func (c *Comm) collCheck(th *Thread) error {
	ft := th.P.ft
	if ft == nil {
		return nil
	}
	w := th.P.w
	if ft.revoked[c.ctx] {
		return w.raise(c, &Error{Code: ErrRevoked,
			Detail: fmt.Sprintf("collective on revoked comm ctx %d", c.ctx)})
	}
	for i := 0; i < c.size; i++ {
		if wr := c.world(i); ft.isDead(wr) {
			return w.raise(c, &Error{Code: ErrProcFailed,
				Detail: fmt.Sprintf("collective on ctx %d: rank %d (world %d) failed", c.ctx, i, wr)})
		}
	}
	return nil
}
