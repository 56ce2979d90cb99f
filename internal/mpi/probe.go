package mpi

import (
	"mpicontend/internal/sim"
	"mpicontend/internal/simlock"
)

// Status describes a matched or probed message.
type Status struct {
	Source int
	Tag    int
	Bytes  int64
}

// Iprobe checks, without receiving, whether a message matching (src, tag)
// is available (posted in the unexpected queue after one progress poll).
// Like MPI_Iprobe it is an immediate call: under the priority lock it runs
// at high priority. Related work (§8, Hoefler et al.) discusses why
// probe+recv is inherently racy with multiple threads — that race exists
// here too, by design: another thread may consume the probed message
// before this thread posts its receive.
func (th *Thread) Iprobe(c *Comm, src, tag int) (Status, bool) {
	var st Status
	found := false
	p := th.P
	if p.vciWildcard(tag) {
		// Cross-VCI probe: poll every shard, then report the earliest
		// matching arrival across all unexpected queues under all shard
		// locks (the same order a single queue would give).
		for v := range p.vcis {
			th.progressRound(v, simlock.High, nil)
		}
		var bestAt sim.Time
		th.wildBegin()
		for _, sh := range p.vcis {
			for _, e := range sh.unexp {
				if e.matches(src, tag, c.ctx) {
					if !found || e.arrivedAt < bestAt {
						st = Status{Source: e.src, Tag: e.tag, Bytes: e.bytes}
						bestAt = e.arrivedAt
						found = true
					}
					break
				}
			}
		}
		th.wildEnd()
		return st, found
	}
	v := p.selectVCI(c, tag)
	th.progressRound(v, simlock.High, func() {
		for _, e := range p.vcis[v].unexp {
			if e.matches(src, tag, c.ctx) {
				st = Status{Source: e.src, Tag: e.tag, Bytes: e.bytes}
				found = true
				break
			}
		}
	})
	return st, found
}

// Probe blocks until a matching message is available and returns its
// status, without receiving it.
func (th *Thread) Probe(c *Comm, src, tag int) Status {
	th.pollBackoff = 0
	for {
		if st, ok := th.Iprobe(c, src, tag); ok {
			return st
		}
		th.progressYield()
	}
}
