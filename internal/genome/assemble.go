package genome

import (
	"fmt"

	"mpicontend/internal/fault"
	"mpicontend/internal/machine"
	"mpicontend/internal/mpi"
	"mpicontend/internal/sim"
	"mpicontend/internal/simlock"
)

// Fixed shape of the assembly model.
const (
	readLen   = 36  // paper: 36-nucleotide reads
	kmerLen   = 21  // k, the k-mer length
	perKmerNs = 80  // compute cost per k-mer hashed/inserted
	batchLen  = 256 // k-mers per phase-1 message
)

// Params configures an assembly run.
type Params struct {
	Lock simlock.Kind
	// Procs is the number of MPI processes; the paper runs four per node
	// with two threads each, filling all eight cores.
	Procs        int
	ProcsPerNode int
	GenomeLen    int
	Reads        int
	Seed         uint64
	// Fault configures the fault-injection plane (zero = perfect network).
	Fault fault.Config
	// MaxWall bounds real run time in wall-clock ns (0 = unlimited).
	MaxWall int64
}

func (p Params) withDefaults() Params {
	if p.Procs <= 0 {
		p.Procs = 4
	}
	if p.ProcsPerNode <= 0 {
		p.ProcsPerNode = 4
	}
	if p.GenomeLen <= 0 {
		p.GenomeLen = 10000
	}
	if p.Reads <= 0 {
		p.Reads = 2000
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// Result reports an assembly run.
type Result struct {
	SimNs       int64
	Contigs     []string
	TotalKmers  int64 // k-mer observations processed in phase 1
	UniqueKmers int64
	ContigBases int64
	N50         int
	// Net holds the resilience counters (all zero on a perfect network).
	Net mpi.NetStats
}

// Message kinds for the two phases.
const (
	tagWork  = 1 // phase-1 batches, phase-2 queries and done markers
	tagReply = 2 // phase-2 query replies (received by the walker thread)
)

// workMsg is every message a server receives. Its owner reuses it (see
// the package doc); only the done markers are shared, and they are never
// written after Run builds them.
type workMsg struct {
	kind  int // 1=batch, 2=phase1 done, 3=query, 4=phase2 done
	batch []int64
	query Kmer
	// from is the sending rank: a batch goes back to its free list, a
	// query's reply to its walker.
	from int
}

type replyMsg struct {
	exists        bool
	indeg, outdeg int
	outBase       uint64
}

// assembly is one run's shared context.
type assembly struct {
	p      Params
	c      *mpi.Comm
	states []*procState // by rank
	// doneP1 and doneP2 are the phase-1 and phase-2 done markers every
	// walker sends to every server.
	doneP1, doneP2 workMsg
}

// procState is the shared two-thread state of one process.
type procState struct {
	rank  int
	reads []string
	shard *graphShard

	// free holds this rank's spent phase-1 batches, each handed back by
	// the server that inserted it.
	free []*workMsg
	// query is the walker's phase-2 query, rewritten for every lookup.
	query workMsg
	// replies are the server's phase-2 reply slots, one per asking rank.
	replies []replyMsg

	barrier *sim.Barrier

	contigs []string
}

// Run executes the assembly benchmark.
func Run(p Params) (Result, error) {
	p = p.withDefaults()
	var res Result

	if p.ProcsPerNode > p.Procs {
		p.ProcsPerNode = p.Procs // a partially filled single node
	}
	nodes := (p.Procs + p.ProcsPerNode - 1) / p.ProcsPerNode
	w, err := mpi.NewWorld(mpi.Config{
		Topo:         machine.Nehalem2x4(nodes),
		Lock:         p.Lock,
		ProcsPerNode: p.ProcsPerNode,
		Seed:         p.Seed,
		Fault:        p.Fault,
		MaxWall:      p.MaxWall,
	})
	if err != nil {
		return res, err
	}

	genome := SynthesizeGenome(p.GenomeLen, p.Seed)
	reads := SampleReads(genome, readLen, p.Reads, p.Seed)

	a := &assembly{
		p: p, c: w.Comm(), states: make([]*procState, p.Procs),
		doneP1: workMsg{kind: 2}, doneP2: workMsg{kind: 4},
	}
	for r := 0; r < p.Procs; r++ {
		st := &procState{
			rank:    r,
			shard:   newShard(),
			query:   workMsg{kind: 3, from: r},
			replies: make([]replyMsg, p.Procs),
			barrier: &sim.Barrier{N: 2, Release: 200},
		}
		for i := r; i < len(reads); i += p.Procs {
			st.reads = append(st.reads, reads[i])
		}
		a.states[r] = st
	}

	var endAt int64
	for _, st := range a.states {
		w.Spawn(st.rank, "walker", func(th *mpi.Thread) {
			senderThread(th, a, st)
			if th.S.Now() > endAt {
				endAt = th.S.Now()
			}
		})
		w.Spawn(st.rank, "server", func(th *mpi.Thread) {
			receiverThread(th, a, st)
			if th.S.Now() > endAt {
				endAt = th.S.Now()
			}
		})
	}
	if err := w.Run(); err != nil {
		return res, fmt.Errorf("genome(%v,%d procs): %w", p.Lock, p.Procs, err)
	}

	res.SimNs = endAt
	for _, st := range a.states {
		res.Contigs = append(res.Contigs, st.contigs...)
		res.UniqueKmers += int64(len(st.shard.nodes))
		for _, n := range st.shard.nodes {
			res.TotalKmers += int64(n.count)
		}
	}
	lens := make([]int, 0, len(res.Contigs))
	for _, s := range res.Contigs {
		res.ContigBases += int64(len(s))
		lens = append(lens, len(s))
	}
	res.N50 = n50(lens, res.ContigBases)
	res.Net = w.NetStats()
	if p.Fault.Enabled() {
		if err := w.CheckClean(); err != nil {
			return res, fmt.Errorf("genome(%v,%d procs): %w", p.Lock, p.Procs, err)
		}
	}
	return res, nil
}

// n50 computes the standard N50 contig length statistic.
func n50(lens []int, total int64) int {
	// Insertion sort descending (contig lists are small).
	for i := 1; i < len(lens); i++ {
		for j := i; j > 0 && lens[j] > lens[j-1]; j-- {
			lens[j], lens[j-1] = lens[j-1], lens[j]
		}
	}
	var acc int64
	for _, l := range lens {
		acc += int64(l)
		if acc*2 >= total {
			return l
		}
	}
	return 0
}

// senderThread is the process's sending thread: phase 1 decomposes local
// reads into k-mers and ships them to their owners in batches with blocking
// sends; phase 2 walks unitig chains, querying remote shards.
func senderThread(th *mpi.Thread, a *assembly, st *procState) {
	p, c := a.p, a.c
	k := kmerLen
	rank := st.rank
	batches := make([]*workMsg, p.Procs) // the open batch per owner, or nil

	flush := func(dst int) {
		b := batches[dst]
		if b == nil {
			return
		}
		th.Send(c, dst, tagWork, int64(len(b.batch)*9), b)
		batches[dst] = nil
	}

	// Phase 1: k-mer extraction and distribution.
	for _, read := range st.reads {
		if len(read) < k {
			continue
		}
		m := PackKmer(read, k)
		for i := 0; ; i++ {
			prev := int8(-1)
			if i > 0 {
				prev = int8(baseCode(read[i-1]))
			}
			next := int8(-1)
			if i+k < len(read) {
				next = int8(baseCode(read[i+k]))
			}
			dst := m.Owner(p.Procs)
			b := batches[dst]
			if b == nil {
				b = st.takeBatch(2 * batchLen)
				batches[dst] = b
			}
			b.batch = append(b.batch, int64(m), int64(prev)<<8|int64(uint8(next)))
			if len(b.batch) >= 2*batchLen {
				th.S.Sleep(int64(batchLen) * perKmerNs)
				flush(dst)
			}
			if i+k >= len(read) {
				break
			}
			m = m.Shift(baseCode(read[i+k]), k)
		}
	}
	for dst, b := range batches {
		n := 0
		if b != nil {
			n = len(b.batch)
		}
		th.S.Sleep(int64(n/2) * perKmerNs)
		flush(dst)
	}
	for dst := 0; dst < p.Procs; dst++ {
		th.Send(c, dst, tagWork, 8, &a.doneP1)
	}
	// Wait for the local receiver to finish phase 1, then synchronize all
	// processes so every shard is complete before walking.
	st.barrier.Wait(th.S)
	th.Barrier(c)
	st.barrier.Wait(th.S)

	// Phase 2: walk unitig chains from local heads.
	lookup := func(m Kmer) (replyMsg, bool) {
		owner := m.Owner(p.Procs)
		if owner == rank {
			n, ok := st.shard.nodes[m]
			if !ok {
				return replyMsg{}, false
			}
			return nodeReply(n), true
		}
		st.query.query = m
		th.Send(c, owner, tagWork, 16, &st.query)
		r := th.Recv(c, owner, tagReply).(*replyMsg)
		return *r, r.exists
	}
	maxLen := p.GenomeLen + kmerLen
	// Deterministic iteration order (Go map order is randomized, which
	// would break simulation reproducibility).
	keys := make([]Kmer, 0, len(st.shard.nodes))
	for m := range st.shard.nodes {
		keys = append(keys, m)
	}
	sortKmers(keys)
	for _, m := range keys {
		n := st.shard.nodes[m]
		indeg := popcount4(n.inEdges)
		outdeg := popcount4(n.outEdges)
		if indeg == 1 {
			// Chain-internal — unless the single predecessor branches,
			// in which case this node heads a post-branch chain.
			prevBase := uint64(0)
			for i := uint64(0); i < 4; i++ {
				if n.inEdges&(1<<i) != 0 {
					prevBase = i
				}
			}
			predK := Kmer(prevBase<<uint(2*(kmerLen-1)) | uint64(m)>>2)
			info, ok := lookup(predK)
			if ok && info.outdeg == 1 {
				continue // true chain-internal node
			}
		}
		contig := []byte(m.String(kmerLen))
		cur := m
		curOut := outdeg
		curBase := safeOutBase(n)
		for curOut == 1 && len(contig) < maxLen {
			nextK := cur.Shift(curBase, kmerLen)
			info, ok := lookup(nextK)
			if !ok || info.indeg != 1 {
				break
			}
			contig = append(contig, baseAlphabet[curBase])
			th.S.Sleep(perKmerNs)
			cur = nextK
			curOut = info.outdeg
			curBase = info.outBase
		}
		st.contigs = append(st.contigs, string(contig))
	}
	// Tell every server the walker is done.
	for dst := 0; dst < p.Procs; dst++ {
		th.Send(c, dst, tagWork, 8, &a.doneP2)
	}
	st.barrier.Wait(th.S) // join the server before returning
}

// takeBatch returns an empty phase-1 batch message from the rank's free
// list, or a new one with room for size entries when all are in flight.
func (st *procState) takeBatch(size int) *workMsg {
	if n := len(st.free); n > 0 {
		b := st.free[n-1]
		st.free = st.free[:n-1]
		return b
	}
	return &workMsg{kind: 1, batch: make([]int64, 0, size), from: st.rank}
}

// sortKmers sorts in place ascending (simple shell sort; stdlib sort would
// also do, this keeps the hot path allocation-free).
func sortKmers(ks []Kmer) {
	for gap := len(ks) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(ks); i++ {
			for j := i; j >= gap && ks[j-gap] > ks[j]; j -= gap {
				ks[j], ks[j-gap] = ks[j-gap], ks[j]
			}
		}
	}
}

// safeOutBase returns the out base when the out degree is 1, else 0.
func safeOutBase(n node) uint64 {
	if popcount4(n.outEdges) == 1 {
		return n.outBase()
	}
	return 0
}

// nodeReply is the phase-2 answer about an existing node.
func nodeReply(n node) replyMsg {
	return replyMsg{exists: true, indeg: popcount4(n.inEdges),
		outdeg: popcount4(n.outEdges), outBase: safeOutBase(n)}
}

// receiverThread is the process's receiving thread: it serves phase-1
// batch inserts, then phase-2 chain queries, with blocking receives.
func receiverThread(th *mpi.Thread, a *assembly, st *procState) {
	p, c := a.p, a.c
	// Phase 1: insert batches until every process said done.
	dones := 0
	for dones < p.Procs {
		v := th.Recv(c, mpi.AnySource, tagWork).(*workMsg)
		switch v.kind {
		case 1:
			th.S.Sleep(int64(len(v.batch)/2) * perKmerNs)
			for i := 0; i+1 < len(v.batch); i += 2 {
				m := Kmer(v.batch[i])
				prev := int8(v.batch[i+1] >> 8)
				next := int8(uint8(v.batch[i+1]))
				st.shard.insert(m, prev, next)
			}
			// Inserted: the sender may refill it.
			v.batch = v.batch[:0]
			owner := a.states[v.from]
			owner.free = append(owner.free, v)
		case 2:
			dones++
		default:
			panic("genome: phase-2 message during phase 1")
		}
	}
	st.barrier.Wait(th.S) // local sender may proceed to the global barrier
	st.barrier.Wait(th.S) // global barrier done; phase 2 begins

	serveQueries(th, a, st)
	st.barrier.Wait(th.S)
}

// serveQueries is the server's phase 2: it answers chain queries until
// every walker said done. Each answer goes into the asking rank's reply
// slot, which that walker reads before it can ask again.
//
//simcheck:hotpath every phase-2 query; the query and reply buffers are reused, so a query allocates nothing
func serveQueries(th *mpi.Thread, a *assembly, st *procState) {
	p, c := a.p, a.c
	for dones := 0; dones < p.Procs; {
		v := th.Recv(c, mpi.AnySource, tagWork).(*workMsg)
		switch v.kind {
		case 3:
			th.S.Sleep(perKmerNs)
			r := &st.replies[v.from]
			*r = replyMsg{}
			if n, ok := st.shard.nodes[v.query]; ok {
				*r = nodeReply(n)
			}
			th.Send(c, v.from, tagReply, 16, r)
		case 4:
			dones++
		default:
			panic("genome: unexpected phase-1 message during phase 2")
		}
	}
}
