package genome

import (
	"strings"
	"testing"
	"testing/quick"

	"mpicontend/internal/simlock"
)

func TestKmerPackUnpack(t *testing.T) {
	f := func(seed uint64) bool {
		g := SynthesizeGenome(40, seed)
		k := 21
		m := PackKmer(g, k)
		return m.String(k) == g[:k]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKmerShift(t *testing.T) {
	g := "ACGTACGTACGTACGTACGTACGTA"
	k := 21
	m := PackKmer(g, k)
	m = m.Shift(baseCode(g[k]), k)
	if m.String(k) != g[1:k+1] {
		t.Fatalf("shift mismatch: %s vs %s", m.String(k), g[1:k+1])
	}
}

func TestKmerOwnerInRange(t *testing.T) {
	f := func(v uint64, procsRaw uint8) bool {
		procs := 1 + int(procsRaw)%16
		o := Kmer(v).Owner(procs)
		return o >= 0 && o < procs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKmerOwnerSpreads(t *testing.T) {
	counts := make([]int, 4)
	g := SynthesizeGenome(5000, 1)
	for i := 0; i+21 <= len(g); i++ {
		counts[PackKmer(g[i:], 21).Owner(4)]++
	}
	for r, c := range counts {
		if c < 500 {
			t.Fatalf("owner %d got only %d kmers: %v", r, c, counts)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	if SynthesizeGenome(100, 5) != SynthesizeGenome(100, 5) {
		t.Fatal("genome synthesis not deterministic")
	}
	if SynthesizeGenome(100, 5) == SynthesizeGenome(100, 6) {
		t.Fatal("different seeds gave same genome")
	}
}

func TestReadsComeFromGenome(t *testing.T) {
	g := SynthesizeGenome(2000, 3)
	reads := SampleReads(g, 36, 100, 3)
	if len(reads) != 100 {
		t.Fatalf("read count %d", len(reads))
	}
	for _, r := range reads {
		if len(r) != 36 || !strings.Contains(g, r) {
			t.Fatalf("read %q not a genome substring", r)
		}
	}
}

func TestShardInsert(t *testing.T) {
	sh := newShard()
	m := PackKmer("ACGTACGTACGTACGTACGTA", 21)
	sh.insert(m, -1, int8(baseCode('G')))
	sh.insert(m, int8(baseCode('T')), int8(baseCode('G')))
	n := sh.nodes[m]
	if n.count != 2 {
		t.Fatalf("count = %d", n.count)
	}
	if popcount4(n.outEdges) != 1 || popcount4(n.inEdges) != 1 {
		t.Fatalf("edges: out=%b in=%b", n.outEdges, n.inEdges)
	}
	if n.outBase() != baseCode('G') {
		t.Fatalf("outBase = %d", n.outBase())
	}
}

func TestSortKmers(t *testing.T) {
	f := func(vals []uint64) bool {
		ks := make([]Kmer, len(vals))
		for i, v := range vals {
			ks[i] = Kmer(v)
		}
		sortKmers(ks)
		for i := 1; i < len(ks); i++ {
			if ks[i-1] > ks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAssemblyContigsAreGenomeSubstrings(t *testing.T) {
	p := Params{Lock: simlock.KindTicket, Procs: 4, GenomeLen: 4000,
		Reads: 900, Seed: 7}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	g := SynthesizeGenome(4000, 7)
	if len(res.Contigs) == 0 {
		t.Fatal("no contigs assembled")
	}
	for _, ctg := range res.Contigs {
		if !strings.Contains(g, ctg) {
			t.Fatalf("contig %q... (len %d) not in genome", ctg[:min(30, len(ctg))], len(ctg))
		}
	}
	// With ~8x coverage most of the genome should be assembled.
	if res.ContigBases < int64(res.UniqueKmers)/2 {
		t.Fatalf("assembled only %d bases for %d unique kmers",
			res.ContigBases, res.UniqueKmers)
	}
	t.Logf("contigs=%d bases=%d N50=%d unique=%d", len(res.Contigs),
		res.ContigBases, res.N50, res.UniqueKmers)
}

func TestAssemblyAllLocksAgree(t *testing.T) {
	var sums []int64
	for _, k := range []simlock.Kind{simlock.KindMutex, simlock.KindTicket, simlock.KindPriority} {
		p := Params{Lock: k, Procs: 4, GenomeLen: 2000, Reads: 400, Seed: 11}
		res, err := Run(p)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		sums = append(sums, res.ContigBases)
	}
	if sums[0] != sums[1] || sums[1] != sums[2] {
		t.Fatalf("contig bases differ across locks: %v", sums)
	}
}

func TestAssemblySingleProc(t *testing.T) {
	p := Params{Lock: simlock.KindTicket, Procs: 1, ProcsPerNode: 1,
		GenomeLen: 1500, Reads: 400, Seed: 13}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) == 0 || res.SimNs == 0 {
		t.Fatalf("degenerate: %+v", res.SimNs)
	}
}

func TestAssemblyDeterministic(t *testing.T) {
	p := Params{Lock: simlock.KindMutex, Procs: 2, ProcsPerNode: 2,
		GenomeLen: 1500, Reads: 300, Seed: 17}
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.SimNs != b.SimNs || a.ContigBases != b.ContigBases {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.SimNs, a.ContigBases, b.SimNs, b.ContigBases)
	}
}

// TestAssemblyFairLocksFaster reproduces Fig. 12b's shape: the two-thread
// blocking send/recv pattern speeds up ~2x with fair arbitration.
func TestAssemblyFairLocksFaster(t *testing.T) {
	run := func(k simlock.Kind) int64 {
		res, err := Run(Params{Lock: k, Procs: 4, GenomeLen: 4000, Reads: 800, Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		return res.SimNs
	}
	m, tk := run(simlock.KindMutex), run(simlock.KindTicket)
	t.Logf("assembly time: mutex %dus ticket %dus (speedup %.2fx)",
		m/1000, tk/1000, float64(m)/float64(tk))
	if tk >= m {
		t.Errorf("ticket (%d) should be faster than mutex (%d)", tk, m)
	}
}

// TestAssemblyAllocs gates the host cost of one fig12b-quick-size
// assembly: the walker's query, the servers' reply slots, the done markers
// and the recycled phase-1 batches make the kernel's messages free, so
// what remains is setup (world, genome, reads, shards) and the contigs.
// A per-query message alone would add one allocation per remote lookup,
// about 10,000 here.
func TestAssemblyAllocs(t *testing.T) {
	p := Params{Lock: simlock.KindMutex, Procs: 8, GenomeLen: 6000, Reads: 1200, Seed: 1}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Run(p); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per assembly", allocs)
	if allocs > 1650 {
		t.Fatalf("%.0f allocs per assembly, want <= 1650", allocs)
	}
}

func TestN50(t *testing.T) {
	if got := n50([]int{10, 5, 3, 2}, 20); got != 10 {
		t.Fatalf("n50 = %d, want 10", got)
	}
	if got := n50([]int{4, 4, 4, 4, 4}, 20); got != 4 {
		t.Fatalf("n50 = %d, want 4", got)
	}
	if got := n50(nil, 0); got != 0 {
		t.Fatalf("n50(empty) = %d", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
