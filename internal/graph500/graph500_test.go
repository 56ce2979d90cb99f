package graph500

import (
	"reflect"
	"testing"
	"testing/quick"

	"mpicontend/internal/machine"
	"mpicontend/internal/simlock"
)

func TestKroneckerShape(t *testing.T) {
	edges := GenerateKronecker(10, 16, 1)
	if len(edges) != 16*1024 {
		t.Fatalf("edge count = %d", len(edges))
	}
	n := int64(1024)
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			t.Fatalf("edge out of range: %+v", e)
		}
	}
}

func TestKroneckerDeterministic(t *testing.T) {
	a := GenerateKronecker(8, 8, 7)
	b := GenerateKronecker(8, 8, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generator not deterministic")
		}
	}
	c := GenerateKronecker(8, 8, 8)
	diff := 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds gave identical graphs")
	}
}

func TestKroneckerSkewed(t *testing.T) {
	// R-MAT graphs are heavy-tailed: max degree far above average.
	edges := GenerateKronecker(12, 16, 3)
	deg := map[int64]int{}
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	max := 0
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	avg := 2 * len(edges) / (1 << 12)
	if max < 5*avg {
		t.Fatalf("degree distribution not skewed: max %d, avg %d", max, avg)
	}
}

func TestPartitionProperties(t *testing.T) {
	f := func(scaleRaw, procsRaw uint8) bool {
		n := int64(1) << (4 + scaleRaw%8)
		procs := 1 + int(procsRaw)%9
		part := NewPartition(n, procs)
		total := int64(0)
		for r := 0; r < procs; r++ {
			total += part.Count(r)
		}
		if total != n {
			return false
		}
		for v := int64(0); v < n; v++ {
			o := part.Owner(v)
			if o < 0 || o >= procs {
				return false
			}
			base := part.Base(o)
			if v < base || v >= base+part.Count(o) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalCSRCoversAllEdges(t *testing.T) {
	edges := GenerateKronecker(8, 8, 5)
	part := NewPartition(256, 3)
	total := int64(0)
	for _, g := range BuildCSRs(edges, part) {
		total += g.Offsets[g.Rows]
	}
	want := int64(0)
	for _, e := range edges {
		if e.U != e.V {
			want += 2 // both directions
		}
	}
	if total != want {
		t.Fatalf("CSR holds %d directed edges, want %d", total, want)
	}
}

// referenceCSR is the naive per-rank build: it scans every edge for the
// rows rank owns, counting then filling, so each row lists its neighbors
// in edge order.
func referenceCSR(edges []Edge, part Partition, rank int) *CSR {
	base, rows := part.Base(rank), part.Count(rank)
	offsets := make([]int64, rows+1)
	adj := make([][]int64, rows)
	add := func(u, v int64) {
		if part.Owner(u) == rank {
			adj[u-base] = append(adj[u-base], v)
		}
	}
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		add(e.U, e.V)
		add(e.V, e.U)
	}
	targets := []int64{}
	for i, a := range adj {
		targets = append(targets, a...)
		offsets[i+1] = int64(len(targets))
	}
	return &CSR{N: part.N, Offsets: offsets, Targets: targets, RowBase: base, Rows: rows}
}

// TestBuildCSRsMatchesReference checks the two-pass build against the
// naive per-rank one, row by row and neighbor by neighbor, over rank
// counts that divide the vertex count, that leave a short last rank, and
// that leave trailing ranks empty.
func TestBuildCSRsMatchesReference(t *testing.T) {
	edges := GenerateKronecker(8, 8, 5)
	edges = append(edges, Edge{U: 7, V: 7}, Edge{U: 3, V: 200}, Edge{U: 3, V: 200})
	for _, procs := range []int{1, 3, 4, 7, 300} {
		part := NewPartition(256, procs)
		gs := BuildCSRs(edges, part)
		if len(gs) != procs {
			t.Fatalf("procs %d: %d CSRs", procs, len(gs))
		}
		for r, g := range gs {
			want := referenceCSR(edges, part, r)
			if !reflect.DeepEqual(g, want) {
				t.Fatalf("procs %d rank %d: CSR differs from the per-rank reference", procs, r)
			}
		}
	}
}

func TestBFSSingleProcSingleThread(t *testing.T) {
	p := Params{Lock: simlock.KindNone, Scale: 10, EdgeFactor: 8, Seed: 9}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.VisitedVertices < 2 {
		t.Fatalf("visited only %d vertices", res.VisitedVertices)
	}
	edges := GenerateKronecker(10, 8, 9)
	root := pickRoots(edges, res.Part, 1, 9)[0]
	if err := Validate(edges, root, res); err != nil {
		t.Fatal(err)
	}
}

func TestBFSMultiThread(t *testing.T) {
	p := Params{Lock: simlock.KindTicket, Threads: 4, Scale: 10, EdgeFactor: 8, Seed: 11}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	edges := GenerateKronecker(10, 8, 11)
	root := pickRoots(edges, res.Part, 1, 11)[0]
	if err := Validate(edges, root, res); err != nil {
		t.Fatal(err)
	}
}

func TestBFSDistributed(t *testing.T) {
	for _, procs := range []int{2, 4} {
		for _, k := range []simlock.Kind{simlock.KindMutex, simlock.KindTicket, simlock.KindPriority} {
			p := Params{Lock: k, Procs: procs, Threads: 2, Scale: 10, EdgeFactor: 8, Seed: 13}
			res, err := Run(p)
			if err != nil {
				t.Fatalf("procs=%d lock=%v: %v", procs, k, err)
			}
			edges := GenerateKronecker(10, 8, 13)
			root := pickRoots(edges, res.Part, 1, 13)[0]
			if err := Validate(edges, root, res); err != nil {
				t.Fatalf("procs=%d lock=%v: %v", procs, k, err)
			}
		}
	}
}

func TestBFSDistributedEqualsSingle(t *testing.T) {
	// The set of visited vertices must be identical no matter the
	// process/thread decomposition.
	single, err := Run(Params{Lock: simlock.KindNone, Scale: 9, EdgeFactor: 8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(Params{Lock: simlock.KindTicket, Procs: 3, Threads: 4,
		Scale: 9, EdgeFactor: 8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if single.VisitedVertices != multi.VisitedVertices {
		t.Fatalf("visited differ: single %d vs multi %d",
			single.VisitedVertices, multi.VisitedVertices)
	}
}

func TestBFSMultipleRoots(t *testing.T) {
	res, err := Run(Params{Lock: simlock.KindTicket, Procs: 2, Threads: 2,
		Scale: 9, EdgeFactor: 8, Seed: 19, Roots: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.MTEPS <= 0 {
		t.Fatalf("MTEPS = %v", res.MTEPS)
	}
}

func TestBFSThreadScalingSpeedup(t *testing.T) {
	// Fig. 10a shape: more threads on one socket must raise MTEPS.
	r1, err := Run(Params{Lock: simlock.KindNone, Threads: 1, Scale: 12, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(Params{Lock: simlock.KindNone, Threads: 4, Scale: 12, Seed: 23,
		Binding: machine.Compact})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("single-node BFS: 1t %.1f MTEPS, 4t %.1f MTEPS", r1.MTEPS, r4.MTEPS)
	if r4.MTEPS < r1.MTEPS*2 {
		t.Errorf("4 threads %.1f MTEPS < 2x single %.1f", r4.MTEPS, r1.MTEPS)
	}
}

func TestBFSDeterministic(t *testing.T) {
	p := Params{Lock: simlock.KindMutex, Procs: 2, Threads: 2, Scale: 9, EdgeFactor: 8, Seed: 29}
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.SimNs != b.SimNs || a.ScannedEdges != b.ScannedEdges {
		t.Fatalf("nondeterministic: %+v vs %+v", a.SimNs, b.SimNs)
	}
}

func TestChunkCoversAll(t *testing.T) {
	f := func(nRaw, tRaw uint8) bool {
		n := int(nRaw)
		T := 1 + int(tRaw)%16
		covered := 0
		prevHi := 0
		for t := 0; t < T; t++ {
			lo, hi := chunk(n, T, t)
			if lo != prevHi {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
