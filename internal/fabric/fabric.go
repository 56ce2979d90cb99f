// Package fabric models the cluster interconnect: per-process NICs with
// serialized injection, a latency/bandwidth cost for inter-node transfers
// (Mellanox QDR class), and a cheaper shared-memory path between processes
// on the same node. Delivery is asynchronous: packets arrive as events in
// the destination process's completion queue.
//
// fabric is part of the deterministic core (docs/ARCHITECTURE.md).
package fabric

import (
	"fmt"

	"mpicontend/internal/fault"
	"mpicontend/internal/machine"
	"mpicontend/internal/sim"
	"mpicontend/internal/telemetry"
)

// PacketKind distinguishes the protocol messages exchanged by the MPI
// runtime. The fabric itself treats them opaquely; kinds live here so both
// the runtime and tests can name them.
type PacketKind int

const (
	// Eager carries a full message payload (small-message protocol).
	Eager PacketKind = iota
	// RTS is a rendezvous request-to-send (envelope only).
	RTS
	// CTS is a rendezvous clear-to-send reply.
	CTS
	// RData carries the rendezvous payload.
	RData
	// RMAPut carries a one-sided put payload.
	RMAPut
	// RMAGet requests data from a remote window.
	RMAGet
	// RMAGetReply carries the data answering an RMAGet.
	RMAGetReply
	// RMAAcc carries an accumulate payload.
	RMAAcc
	// RMAAck acknowledges completion of a one-sided operation at the
	// target.
	RMAAck
	// TxDone is a local NIC completion: the packet with the given handle
	// finished injecting. It never crosses the wire.
	TxDone
	// Ack is a transport-level acknowledgement of a sequence-numbered
	// packet (reliable mode only; sent unreliably itself).
	Ack
	// Nack is a transport-level fast-retransmit request: the receiver
	// observed a sequence gap and names the missing sequence number.
	Nack
	// Heartbeat is a failure-detector liveness beacon (unreliable; sent
	// only when a crash schedule is configured).
	Heartbeat
	// Revoke propagates a communicator revocation (ULFM-style); Seq
	// carries the revoked context id. Sent reliably so revocation
	// survives a lossy network.
	Revoke
	// PartData carries an aggregated partitioned transfer: one packet
	// covers a contiguous range of ready partitions of a Psend. The range
	// bounds live in Hdr; under the reliable transport each range is
	// sequence-numbered independently, so a drop retransmits only its own
	// partitions.
	PartData
)

// String names the packet kind; out-of-range values (including negatives)
// render as PacketKind(n).
func (k PacketKind) String() string {
	names := [...]string{"Eager", "RTS", "CTS", "RData", "RMAPut", "RMAGet",
		"RMAGetReply", "RMAAcc", "RMAAck", "TxDone", "Ack", "Nack",
		"Heartbeat", "Revoke", "PartData"}
	if int(k) >= 0 && int(k) < len(names) {
		return names[k]
	}
	//simcheck:allow hotalloc defensive fallback; unreachable for valid kinds
	return fmt.Sprintf("PacketKind(%d)", int(k))
}

// Packet is one unit of traffic between two endpoints.
type Packet struct {
	Kind PacketKind
	Src  int // source endpoint id (MPI rank)
	Dst  int // destination endpoint id
	// Bytes is the payload size used for timing; envelope-only packets
	// use zero.
	Bytes int64
	// Handle identifies the runtime object this packet belongs to
	// (request pointer, window op id); opaque to the fabric.
	Handle interface{}
	// Hdr carries the runtime's protocol fields (matching envelope,
	// sizes, window placement, partition range); opaque to the fabric.
	Hdr Header
	// Meta carries the rare protocol state that is a pointer (a CTS's
	// receive request) or too large for the header (a revocation's rank
	// list); opaque to the fabric.
	Meta interface{}
	// Payload is the actual user data, if the caller transports any.
	Payload interface{}
	// Seq is the transport sequence number when Rel is set (reliable
	// mode); Ack/Nack packets carry the acknowledged/missing sequence.
	Seq uint64
	// Rel marks a sequence-numbered packet covered by the reliable
	// transport (ACK expected, retransmitted on timeout, deduplicated at
	// the receiver).
	Rel bool
	// VCI is the virtual communication interface the packet belongs to at
	// the receiving proc (0 in the unsharded runtime). The fabric never
	// interprets it — one physical NIC per rank carries all VCIs — but
	// echoes it on TxDone completions so the sender's shard is credited.
	VCI int

	// next links the fabric's packet free list while the object is pooled.
	next *Packet
}

// Header is the runtime's protocol header. It is a flat value with no
// pointers, so filling one in allocates nothing; each packet kind uses
// the fields it needs and leaves the rest zero.
type Header struct {
	// Rank, Tag and Ctx are the matching envelope: the sender's
	// communicator-local rank (Packet.Src stays the world rank for
	// routing), the tag and the communicator context.
	Rank, Tag, Ctx int
	// Size is the message size of an eager or RTS packet, or the bytes
	// per partition of a PartData segment.
	Size int64
	// Win, Offset and Count place a one-sided operation: window id,
	// element offset and element count.
	Win           int
	Offset, Count int64
	// Lo and Hi bound the partition range a PartData segment covers;
	// Parts is the partition count of its epoch.
	Lo, Hi, Parts int
}

// Handler receives packets at their delivery time, in engine context.
type Handler func(p *Packet)

// Endpoint is a process's attachment to the fabric: a NIC with serialized
// injection and a delivery callback.
type Endpoint struct {
	id      int
	node    int
	fab     *Fabric
	deliver Handler
	txFree  sim.Time // NIC busy until this time
	dead    bool     // fail-stop: blackhole all traffic in both directions

	// Stats
	PacketsSent int64
	BytesSent   int64
}

// Fabric is the cluster interconnect.
type Fabric struct {
	eng   *sim.Engine
	cost  machine.CostModel
	eps   []*Endpoint
	plane *fault.Plane // nil = perfect network

	// deliverFn routes a queued packet to its destination endpoint — one
	// long-lived callback shared by every delivery event (sim.AtArg), so
	// the hot path allocates no per-packet closures.
	deliverFn func(interface{})
	// pktFree pools packet objects returned by FreePacket.
	pktFree *Packet

	// Tel, when non-nil, records NIC injection and wire-flight spans on
	// the telemetry plane. Purely observational.
	Tel *telemetry.Recorder
}

// New creates a fabric over the given engine and cost model.
func New(eng *sim.Engine, cost machine.CostModel) *Fabric {
	f := &Fabric{eng: eng, cost: cost}
	f.deliverFn = func(x interface{}) {
		p := x.(*Packet)
		dst := f.eps[p.Dst]
		if dst.dead {
			// Fail-stop blackhole: a dead process consumes nothing. The
			// packet is dropped silently (not recycled — under a fault
			// plane the sender's transport may still reference it).
			return
		}
		dst.deliver(p)
	}
	return f
}

// AllocPacket returns a zeroed packet, reusing a pooled object when one is
// available. Callers that can prove the packet dies at a known point may
// hand it back with FreePacket; callers that cannot simply let the garbage
// collector take it.
func (f *Fabric) AllocPacket() *Packet {
	if p := f.pktFree; p != nil {
		f.pktFree = p.next
		*p = Packet{}
		return p
	}
	//simcheck:allow hotalloc pool refill slow path; steady state reuses freed packets
	return new(Packet)
}

// FreePacket recycles p. The caller must guarantee no live references
// remain: in particular, under a fault plane a wire packet may be
// duplicated or stashed for retransmission, so only fault-free traffic
// (and packets that never crossed the wire) are safe to free.
func (f *Fabric) FreePacket(p *Packet) {
	*p = Packet{next: f.pktFree}
	f.pktFree = p
}

// InjectFaults attaches a fault plane; every subsequent wire packet is
// judged by it. A nil plane restores the perfect network.
func (f *Fabric) InjectFaults(pl *fault.Plane) { f.plane = pl }

// FaultStats returns the injected-fault counters (zero when no plane).
func (f *Fabric) FaultStats() fault.Stats {
	if f.plane == nil {
		return fault.Stats{}
	}
	return f.plane.Stats()
}

// Attach registers endpoint id (must be the next consecutive integer,
// starting at 0) on the given node with a delivery handler.
func (f *Fabric) Attach(id, node int, h Handler) *Endpoint {
	if id != len(f.eps) {
		panic(fmt.Sprintf("fabric: endpoints must attach in order; got %d, want %d", id, len(f.eps)))
	}
	ep := &Endpoint{id: id, node: node, fab: f, deliver: h}
	f.eps = append(f.eps, ep)
	return ep
}

// Endpoint returns the attached endpoint with the given id.
func (f *Fabric) Endpoint(id int) *Endpoint { return f.eps[id] }

// Kill marks endpoint id fail-stopped: every packet addressed to it is
// silently dropped at delivery time, and new injections from it are
// suppressed. Packets already in flight FROM the endpoint still arrive —
// they were on the wire when the process died.
func (f *Fabric) Kill(id int) { f.eps[id].dead = true }

// Send injects p from ep. It returns the time at which injection completes
// (when the local NIC is free again and a send buffer may be reused). The
// packet is delivered to the destination handler after the path latency.
// If notifyTx is true, a TxDone packet carrying p.Handle is looped back to
// the sender at injection completion.
func (ep *Endpoint) Send(p *Packet, notifyTx bool) sim.Time {
	f := ep.fab
	if p.Dst < 0 || p.Dst >= len(f.eps) {
		panic(fmt.Sprintf("fabric: send to unattached endpoint %d", p.Dst))
	}
	if ep.dead {
		// A fail-stopped process injects nothing: charge no NIC time,
		// schedule no delivery and no TxDone. Threads of a dead rank may
		// run a few more instructions before unwinding; their sends must
		// not reach the network.
		return f.eng.Now()
	}
	dst := f.eps[p.Dst]
	now := f.eng.Now()

	var bw, lat int64
	interNode := dst.node != ep.node
	if interNode {
		bw, lat = f.cost.NetBandwidth, f.cost.NetLatency
	} else {
		bw, lat = f.cost.IntraNodeBandwidth, f.cost.IntraNodeLatency
	}

	// Fault plane: decide this packet's fate before computing timing, so
	// NIC stalls and brownouts shape the injection itself.
	var v fault.Verdict
	if f.plane != nil {
		v = f.plane.Judge()
		if interNode && bw > 0 {
			bw = int64(float64(bw) * f.plane.BandwidthFactor(now))
		}
	}

	start := now
	if ep.txFree > start {
		start = ep.txFree
	}
	injection := f.cost.NetOverhead + v.StallNs
	if p.Bytes > 0 && bw > 0 {
		injection += p.Bytes * 1e9 / bw
	}
	injectEnd := start + injection
	ep.txFree = injectEnd
	ep.PacketsSent++
	ep.BytesSent += p.Bytes

	if f.Tel != nil {
		f.Tel.Inject(ep.id, p.Kind.String(), p.Bytes, start, injectEnd)
	}

	arrive := injectEnd + lat + v.ExtraNs
	if !v.Drop {
		if f.Tel != nil {
			f.Tel.Flight(ep.id, p.Dst, p.Kind.String(), p.Bytes, injectEnd, arrive)
		}
		f.eng.AtArg(arrive, f.deliverFn, p)
		if v.Duplicate {
			// The copy shares the packet struct: handlers treat packets
			// as read-only, and the receiver's transport deduplicates.
			f.eng.AtArg(arrive+v.DupExtraNs, f.deliverFn, p)
		}
	}

	if notifyTx {
		done := f.AllocPacket()
		done.Kind, done.Src, done.Dst, done.Handle = TxDone, ep.id, ep.id, p.Handle
		done.VCI = p.VCI
		f.eng.AtArg(injectEnd, f.deliverFn, done)
	}
	return injectEnd
}

// ID returns the endpoint id.
func (ep *Endpoint) ID() int { return ep.id }

// TxFreeAt returns when the NIC finishes its current injections.
func (ep *Endpoint) TxFreeAt() sim.Time { return ep.txFree }
