// Package machine models the hardware substrate of the reproduction: a
// cluster of NUMA nodes with a socket/core hierarchy, the cache-transfer
// latencies between cores that drive lock-arbitration bias, and thread
// binding policies (compact/scatter) as used in the paper's experiments.
//
// The default preset mirrors Table 1 of the paper: dual-socket Intel Xeon
// E5540 (Nehalem), 4 cores per socket, SMT disabled, nodes connected by a
// Mellanox QDR InfiniBand fabric.
//
// machine is part of the deterministic core (docs/ARCHITECTURE.md).
package machine

import "fmt"

// Place identifies a hardware thread context: a core on a socket on a node.
// With SMT disabled (as in the paper), one software thread binds per core.
type Place struct {
	Node   int
	Socket int // socket index within the node
	Core   int // core index within the socket
}

// String renders the place as node/socket/core.
func (p Place) String() string {
	return fmt.Sprintf("n%d.s%d.c%d", p.Node, p.Socket, p.Core)
}

// SameCore reports whether a and b are the same hardware context.
func (p Place) SameCore(q Place) bool { return p == q }

// SameSocket reports whether a and b share a socket (possibly same core).
func (p Place) SameSocket(q Place) bool {
	return p.Node == q.Node && p.Socket == q.Socket
}

// SameNode reports whether a and b share a node.
func (p Place) SameNode(q Place) bool { return p.Node == q.Node }

// Topology describes the shape of the simulated cluster.
type Topology struct {
	Nodes          int
	SocketsPerNode int
	CoresPerSocket int
}

// Nehalem2x4 returns the paper's Table 1 node shape for n nodes.
func Nehalem2x4(nodes int) Topology {
	return Topology{Nodes: nodes, SocketsPerNode: 2, CoresPerSocket: 4}
}

// CoresPerNode returns the number of cores on each node.
func (t Topology) CoresPerNode() int { return t.SocketsPerNode * t.CoresPerSocket }

// TotalCores returns the number of cores in the whole cluster.
func (t Topology) TotalCores() int { return t.Nodes * t.CoresPerNode() }

// Validate reports an error for non-positive dimensions.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.SocketsPerNode <= 0 || t.CoresPerSocket <= 0 {
		return fmt.Errorf("machine: invalid topology %+v", t)
	}
	return nil
}

// PlaceOf maps a node-local core index (0..CoresPerNode-1) to a Place,
// numbering cores socket-major: cores 0..CoresPerSocket-1 are socket 0.
func (t Topology) PlaceOf(node, localCore int) Place {
	return Place{
		Node:   node,
		Socket: localCore / t.CoresPerSocket,
		Core:   localCore % t.CoresPerSocket,
	}
}

// Binding is a policy assigning the i-th thread of a process to a core.
type Binding int

const (
	// Compact fills all cores of a socket before moving to the next, as
	// in the paper's "Compact" binding (first four threads on socket 0).
	Compact Binding = iota
	// Scatter round-robins threads across sockets.
	Scatter
)

// String names the binding policy.
func (b Binding) String() string {
	switch b {
	case Compact:
		return "compact"
	case Scatter:
		return "scatter"
	default:
		return fmt.Sprintf("Binding(%d)", int(b))
	}
}

// Valid reports whether b names one of the binding policies above.
func (b Binding) Valid() bool { return b == Compact || b == Scatter }

// Bind returns the place for thread index i of a process whose core
// allotment starts at node-local core firstCore and spans coreCount cores.
// Threads beyond coreCount wrap around (oversubscription).
func (t Topology) Bind(b Binding, node, firstCore, coreCount, i int) Place {
	if coreCount <= 0 {
		coreCount = t.CoresPerNode() - firstCore
	}
	i %= coreCount
	switch b {
	case Compact:
		return t.PlaceOf(node, firstCore+i)
	case Scatter:
		// Round-robin the allotment's cores across sockets: visit core
		// offsets 0, cps, 2*cps... then 1, cps+1, ... within the span.
		cps := t.CoresPerSocket
		socketsSpanned := (coreCount + cps - 1) / cps
		if firstCore%cps == 0 && coreCount >= cps && socketsSpanned > 1 {
			row := i % socketsSpanned
			col := i / socketsSpanned
			return t.PlaceOf(node, firstCore+row*cps+col)
		}
		return t.PlaceOf(node, firstCore+i)
	default:
		return t.PlaceOf(node, firstCore+i)
	}
}
