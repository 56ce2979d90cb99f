// Package graph500 implements the Graph500 BFS benchmark (paper §6.2.1)
// over the simulated MPI runtime: a Kronecker (R-MAT) graph generator, a
// 1-D partitioned CSR representation, and the hybrid MPI+threads
// level-synchronized BFS whose threads cooperate on computation and
// communicate independently with MPI_Test polling, after the reference
// design the paper extends.
//
// graph500 is part of the deterministic core (docs/ARCHITECTURE.md).
package graph500

import "mpicontend/internal/sim"

// Kronecker initiator probabilities (Graph500 specification).
const (
	initA = 0.57
	initB = 0.19
	initC = 0.19
)

// Edge is an undirected graph edge.
type Edge struct {
	U, V int64
}

// GenerateKronecker produces an R-MAT edge list with 2^scale vertices and
// edgefactor*2^scale edges, using the Graph500 initiator matrix. Vertex
// labels are scrambled by a fixed permutation polynomial so degree does not
// correlate with label.
func GenerateKronecker(scale, edgefactor int, seed uint64) []Edge {
	n := int64(1) << uint(scale)
	m := int64(edgefactor) * n
	rng := sim.NewRand(seed)
	edges := make([]Edge, 0, m)
	for i := int64(0); i < m; i++ {
		var u, v int64
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			var ubit, vbit int64
			switch {
			case r < initA:
				// quadrant a: (0,0)
			case r < initA+initB:
				vbit = 1
			case r < initA+initB+initC:
				ubit = 1
			default:
				ubit, vbit = 1, 1
			}
			u = u<<1 | ubit
			v = v<<1 | vbit
		}
		edges = append(edges, Edge{U: scramble(u, n), V: scramble(v, n)})
	}
	return edges
}

// scramble permutes vertex labels within [0, n) (n a power of two) using a
// fixed odd multiplier, decorrelating label and degree.
func scramble(v, n int64) int64 {
	return (v*0x27220A95 + 0x3C6EF35F) & (n - 1)
}

// CSR is a compressed sparse row adjacency structure over global vertex ids.
type CSR struct {
	N       int64   // global vertex count
	Offsets []int64 // len = rows+1, indexed by local row
	Targets []int64 // neighbor global ids
	RowBase int64   // global id of local row 0
	Rows    int64   // number of local rows
}

// Neighbors returns the adjacency slice of local row r.
func (g *CSR) Neighbors(r int64) []int64 {
	return g.Targets[g.Offsets[r]:g.Offsets[r+1]]
}

// Partition describes a block 1-D vertex partition over nprocs ranks.
type Partition struct {
	N      int64
	NProcs int
	per    int64
}

// NewPartition creates a block partition of n vertices over nprocs ranks.
func NewPartition(n int64, nprocs int) Partition {
	per := (n + int64(nprocs) - 1) / int64(nprocs)
	return Partition{N: n, NProcs: nprocs, per: per}
}

// Owner returns the rank owning global vertex v.
func (p Partition) Owner(v int64) int {
	o := int(v / p.per)
	if o >= p.NProcs {
		o = p.NProcs - 1
	}
	return o
}

// Base returns the first global vertex id owned by rank.
func (p Partition) Base(rank int) int64 { return int64(rank) * p.per }

// Count returns the number of vertices owned by rank.
func (p Partition) Count(rank int) int64 {
	base := p.Base(rank)
	if base >= p.N {
		return 0
	}
	end := base + p.per
	if end > p.N {
		end = p.N
	}
	return end - base
}

// BuildCSRs builds every rank's CSR rows from the full edge list,
// inserting both directions of each undirected edge and dropping self
// loops. Duplicate edges are kept (they only add scan work, as in the
// reference implementation). It makes two passes over the edges, one to
// count each row's degree and one to fill it, so each row lists its
// neighbors in edge order.
func BuildCSRs(edges []Edge, part Partition) []*CSR {
	gs := make([]*CSR, part.NProcs)
	for r := range gs {
		rows := part.Count(r)
		gs[r] = &CSR{N: part.N, Offsets: make([]int64, rows+1), RowBase: part.Base(r), Rows: rows}
	}
	// Count local row i's degree into Offsets[i+1], then prefix-sum.
	count := func(u int64) {
		g := gs[part.Owner(u)]
		g.Offsets[u-g.RowBase+1]++
	}
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		count(e.U)
		count(e.V)
	}
	next := make([][]int64, len(gs)) // per rank, each row's next free slot
	for r, g := range gs {
		for i := int64(0); i < g.Rows; i++ {
			g.Offsets[i+1] += g.Offsets[i]
		}
		g.Targets = make([]int64, g.Offsets[g.Rows])
		next[r] = append([]int64(nil), g.Offsets[:g.Rows]...)
	}
	put := func(u, v int64) {
		r := part.Owner(u)
		i := u - gs[r].RowBase
		gs[r].Targets[next[r][i]] = v
		next[r][i]++
	}
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		put(e.U, e.V)
		put(e.V, e.U)
	}
	return gs
}
