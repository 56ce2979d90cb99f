// Package genome implements a SWAP-Assembler-style distributed genome
// assembly (paper §6.3): reads are decomposed into k-mers, a de Bruijn
// graph is built across processes by hashing k-mers to owners, and
// unitig chains are compacted into contigs. Following the paper's
// description of the SWAP framework, each process runs two threads — one
// sending and one receiving data with blocking MPI_Send/MPI_Recv — which is
// precisely the MPI_THREAD_MULTIPLE pattern whose lock contention the paper
// measures.
//
// Messages carry pointers, and the kernel reuses every buffer it sends,
// so a run allocates nothing per message. Who may rewrite what, and why
// it is safe:
//
//   - A walker owns one query message and rewrites it for every phase-2
//     lookup. It blocks on the reply before it asks again, and the server
//     reads the query before it replies.
//   - A server owns one reply slot per asking rank and answers rank X in
//     slot X. X reads its reply before it can send the next query, so the
//     slot is free again before the server can be asked to refill it.
//   - A phase-1 batch belongs to its sending rank. The server that
//     receives it inserts every k-mer, then puts the batch back on the
//     sender's free list; only then may the sender refill it.
//   - The done markers are built once per run and never written.
//
// genome is part of the deterministic core (docs/ARCHITECTURE.md).
package genome

import (
	"strings"

	"mpicontend/internal/sim"
)

// Bases in two-bit encoding.
const baseAlphabet = "ACGT"

// SynthesizeGenome returns a deterministic pseudo-random genome sequence.
func SynthesizeGenome(length int, seed uint64) string {
	rng := sim.NewRand(seed)
	var b strings.Builder
	b.Grow(length)
	for i := 0; i < length; i++ {
		b.WriteByte(baseAlphabet[rng.Intn(4)])
	}
	return b.String()
}

// SampleReads samples count reads of readLen bases from uniformly random
// positions of the genome (forward strand, error-free — substitutions
// would only add tips/bubbles the simple compactor ignores).
func SampleReads(genome string, readLen, count int, seed uint64) []string {
	rng := sim.NewRand(seed ^ 0xdeadbeef)
	reads := make([]string, 0, count)
	max := len(genome) - readLen
	if max < 1 {
		max = 1
	}
	for i := 0; i < count; i++ {
		at := rng.Intn(max)
		reads = append(reads, genome[at:at+readLen])
	}
	return reads
}

// Kmer is a 2-bit packed k-mer (k <= 31).
type Kmer uint64

// baseCode maps a nucleotide letter to its 2-bit code.
func baseCode(b byte) uint64 {
	switch b {
	case 'A':
		return 0
	case 'C':
		return 1
	case 'G':
		return 2
	default:
		return 3
	}
}

// PackKmer encodes s[0:k] as a Kmer.
func PackKmer(s string, k int) Kmer {
	var v uint64
	for i := 0; i < k; i++ {
		v = v<<2 | baseCode(s[i])
	}
	return Kmer(v)
}

// Shift appends base code b to the k-mer, dropping its oldest base.
func (m Kmer) Shift(b uint64, k int) Kmer {
	mask := (uint64(1) << uint(2*k)) - 1
	return Kmer((uint64(m)<<2 | b) & mask)
}

// String decodes the k-mer back to letters.
func (m Kmer) String(k int) string {
	buf := make([]byte, k)
	v := uint64(m)
	for i := k - 1; i >= 0; i-- {
		buf[i] = baseAlphabet[v&3]
		v >>= 2
	}
	return string(buf)
}

// Owner returns the rank owning the k-mer under a mixed hash.
func (m Kmer) Owner(nprocs int) int {
	z := uint64(m)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(nprocs))
}

// node is a de Bruijn graph vertex: which bases extend the k-mer on either
// side, and its multiplicity.
type node struct {
	count    int32
	outEdges uint8 // bitmask over base codes
	inEdges  uint8
}

func popcount4(m uint8) int {
	n := 0
	for i := uint(0); i < 4; i++ {
		if m&(1<<i) != 0 {
			n++
		}
	}
	return n
}

// outBase returns the single out-edge base code; call only when the out
// degree is exactly 1.
func (n node) outBase() uint64 {
	for i := uint64(0); i < 4; i++ {
		if n.outEdges&(1<<i) != 0 {
			return i
		}
	}
	panic("genome: outBase on node without out edges")
}

// graphShard is the k-mer map owned by one process. Nodes are held by
// value: a node is six bytes, so a pointer per k-mer would cost an
// allocation for nothing.
type graphShard struct {
	nodes map[Kmer]node
}

func newShard() *graphShard { return &graphShard{nodes: make(map[Kmer]node)} }

// insert records one k-mer observation with its neighbor bases (prev/next
// are base codes, or -1 at a read boundary).
func (g *graphShard) insert(m Kmer, prev, next int8) {
	n := g.nodes[m]
	n.count++
	if next >= 0 {
		n.outEdges |= 1 << uint(next)
	}
	if prev >= 0 {
		n.inEdges |= 1 << uint(prev)
	}
	g.nodes[m] = n
}
