package mpi

import (
	"fmt"
	"sort"
)

// This file generalizes communicators beyond MPI_COMM_WORLD: SetupComm
// gives a disjoint matching context over the world group, Split partitions
// a communicator by color, as in MPI_Comm_split. Point-to-point source/dest
// arguments and collective ranks are always communicator-local; the
// runtime translates to world ranks for routing and matches on
// (context, comm-local source, tag).

// group returns the comm's member world ranks (identity for the world
// communicator, where ranks is left nil to avoid allocation).
func (c *Comm) world(rank int) int {
	if c.ranks == nil {
		return rank
	}
	return c.ranks[rank]
}

// rank translates a world rank to this comm's local rank, or -1.
func (c *Comm) rank(world int) int {
	if c.ranks == nil {
		return world
	}
	for i, r := range c.ranks {
		if r == world {
			return i
		}
	}
	return -1
}

// Rank returns the calling thread's rank within the communicator (-1 if
// the process is not a member).
func (c *Comm) Rank(th *Thread) int { return c.rank(th.P.Rank) }

// Member reports whether the calling thread's process belongs to c.
func (c *Comm) Member(th *Thread) bool { return c.rank(th.P.Rank) >= 0 }

// WorldRanks returns the communicator's members as world ranks, in
// comm-rank order (used by recovery code to see who a Shrink excluded).
func (c *Comm) WorldRanks() []int {
	out := make([]int, c.size)
	for i := range out {
		out[i] = c.world(i)
	}
	return out
}

// collComm returns the shadow communicator used by collective traffic:
// same group, a reserved context disjoint from every user context. The
// shadow inherits the VCI hint so explicitly placed communicators keep
// their collectives on the same shard.
func (c *Comm) collComm() *Comm {
	return &Comm{w: c.w, ctx: collCtx - c.ctx, size: c.size, ranks: c.ranks,
		vcihint: c.vcihint}
}

// SetVCI pins every operation of the communicator to the given VCI under
// the Explicit mapping policy (an MPICH-style comm info hint). Must be
// called identically on every member before any traffic; under other
// policies the hint is ignored. Returns c for chaining.
func (c *Comm) SetVCI(v int) *Comm {
	if v < 0 {
		panic(fmt.Sprintf("mpi: SetVCI(%d): negative VCI", v))
	}
	c.vcihint = v + 1
	return c
}

// vciHint returns the communicator's explicit VCI, or vci.NoHint (-1) when
// unset. Stored shifted by one so the zero value means "no hint".
func (c *Comm) vciHint() int { return c.vcihint - 1 }

// allocCtx hands out a fresh user context id. It must be called by exactly
// one process per collective (the comm's rank 0), which then broadcasts
// the id — mirroring how real MPI implementations agree on context ids.
func (w *World) allocCtx() int {
	w.nextCtx++
	return w.nextCtx
}

// SetupComm returns a duplicate of the world communicator with a fresh
// matching context, created during world setup before Run. It models a
// communicator the application dup'ed in its init phase, outside the
// timed region — the per-thread-communicator pattern the VCI literature
// recommends — without simulating the setup collective itself. Context
// ids come from the same counter as Split and Shrink, so setup comms and
// run-time comms never collide.
func (w *World) SetupComm() *Comm {
	return &Comm{w: w, ctx: w.allocCtx(), size: len(w.Procs)}
}

// splitEntry is one rank's contribution to a Split.
type splitEntry struct {
	color, key, rank int
}

// splitTable is the root's computed partition, broadcast to all members.
type splitTable struct {
	// groups maps color -> member world ranks in (key, rank) order.
	colors []int
	groups [][]int
	ctxs   []int
}

// Split partitions the communicator by color, ordering each new group by
// key (ties by old rank), exactly like MPI_Comm_split. Collective: every
// member must call it; the returned communicator contains the members that
// passed the same color. A negative color returns nil (MPI_UNDEFINED).
func (th *Thread) Split(c *Comm, color, key int) *Comm {
	if !c.Member(th) {
		panic("mpi: Split by non-member")
	}
	me := c.Rank(th)
	gathered := th.Gather(c, 0, 24, splitEntry{color: color, key: key, rank: me})
	var table splitTable
	if me == 0 {
		byColor := map[int][]splitEntry{}
		for _, v := range gathered {
			e := v.(splitEntry)
			if e.color >= 0 {
				byColor[e.color] = append(byColor[e.color], e)
			}
		}
		for col := range byColor {
			table.colors = append(table.colors, col)
		}
		sort.Ints(table.colors)
		for _, col := range table.colors {
			es := byColor[col]
			sort.Slice(es, func(i, j int) bool {
				if es[i].key != es[j].key {
					return es[i].key < es[j].key
				}
				return es[i].rank < es[j].rank
			})
			group := make([]int, len(es))
			for i, e := range es {
				group[i] = c.world(e.rank)
			}
			table.groups = append(table.groups, group)
			table.ctxs = append(table.ctxs, c.w.allocCtx())
		}
	}
	table = th.Bcast(c, 0, int64(8*c.size), table).(splitTable)
	if color < 0 {
		return nil
	}
	myWorld := th.P.Rank
	for i, col := range table.colors {
		if col != color {
			continue
		}
		for _, r := range table.groups[i] {
			if r == myWorld {
				return &Comm{w: c.w, ctx: table.ctxs[i],
					size: len(table.groups[i]), ranks: table.groups[i]}
			}
		}
	}
	panic(fmt.Sprintf("mpi: Split table missing rank %d color %d", myWorld, color))
}
