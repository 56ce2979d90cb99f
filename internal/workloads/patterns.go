package workloads

import (
	"fmt"

	"mpicontend/internal/fault"
	"mpicontend/internal/machine"
	"mpicontend/internal/mpi"
	"mpicontend/internal/simlock"
)

// Pattern identifies one scenario of the multithreaded MPI test battery,
// after Thakur & Gropp's "Test suite for evaluating performance of
// multithreaded MPI communication" (paper §8, ref [27]): each pattern
// simulates a typical application behaviour and measures how much the
// runtime's thread safety costs under it.
type Pattern int

const (
	// PatternConcurrentPairs: thread i of rank 0 exchanges with thread i
	// of rank 1 (measures concurrent progress of independent streams).
	PatternConcurrentPairs Pattern = iota
	// PatternFanIn: all threads of all senders target one receiving
	// thread's queue (measures matching under a hot queue).
	PatternFanIn
	// PatternFanOut: one sender thread feeds all receiver threads.
	PatternFanOut
	// PatternComputeOverlap: threads alternate computation with
	// communication (measures how well the runtime overlaps them).
	PatternComputeOverlap
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternConcurrentPairs:
		return "ConcurrentPairs"
	case PatternFanIn:
		return "FanIn"
	case PatternFanOut:
		return "FanOut"
	case PatternComputeOverlap:
		return "ComputeOverlap"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Patterns lists every battery scenario.
func Patterns() []Pattern {
	return []Pattern{PatternConcurrentPairs, PatternFanIn, PatternFanOut,
		PatternComputeOverlap}
}

// PatternParams configures one battery run.
type PatternParams struct {
	Lock     simlock.Kind
	Pattern  Pattern
	Threads  int
	MsgBytes int64
	// Msgs is the number of messages per thread pair.
	Msgs int
	Seed uint64
	// Fault configures the fault-injection plane (zero = perfect network).
	Fault fault.Config
	// MaxWall bounds real run time in wall-clock ns (0 = unlimited).
	MaxWall int64
}

func (p PatternParams) withDefaults() PatternParams {
	if p.Threads <= 0 {
		p.Threads = 4
	}
	if p.MsgBytes <= 0 {
		p.MsgBytes = 64
	}
	if p.Msgs <= 0 {
		p.Msgs = 64
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// PatternResult reports one battery run.
type PatternResult struct {
	Messages       int64
	SimNs          int64
	RateMsgsPerSec float64
	// Net holds the resilience counters (all zero on a perfect network).
	Net mpi.NetStats
}

// RunPattern executes one scenario of the battery between two nodes.
func RunPattern(p PatternParams) (PatternResult, error) {
	p = p.withDefaults()
	var res PatternResult
	if p.Pattern < PatternConcurrentPairs || p.Pattern > PatternComputeOverlap {
		return res, fmt.Errorf("pattern: unknown pattern %d", int(p.Pattern))
	}
	w, err := mpi.NewWorld(mpi.Config{
		Topo:    machine.Nehalem2x4(2),
		Lock:    p.Lock,
		Seed:    p.Seed,
		Fault:   p.Fault,
		MaxWall: p.MaxWall,
	})
	if err != nil {
		return res, err
	}
	c := w.Comm()
	var endAt int64
	stamp := func(th *mpi.Thread) {
		if th.S.Now() > endAt {
			endAt = th.S.Now()
		}
	}

	switch p.Pattern {
	case PatternConcurrentPairs:
		for t := 0; t < p.Threads; t++ {
			t := t
			w.Spawn(0, "send", func(th *mpi.Thread) {
				for i := 0; i < p.Msgs; i++ {
					th.Send(c, 1, t, p.MsgBytes, nil)
				}
				stamp(th)
			})
			w.Spawn(1, "recv", func(th *mpi.Thread) {
				for i := 0; i < p.Msgs; i++ {
					th.Recv(c, 0, t)
				}
				stamp(th)
			})
		}
		res.Messages = int64(p.Threads) * int64(p.Msgs)

	case PatternFanIn:
		for t := 0; t < p.Threads; t++ {
			w.Spawn(0, "send", func(th *mpi.Thread) {
				for i := 0; i < p.Msgs; i++ {
					th.Send(c, 1, 0, p.MsgBytes, nil)
				}
				stamp(th)
			})
		}
		w.Spawn(1, "sink", func(th *mpi.Thread) {
			total := p.Threads * p.Msgs
			rs := make([]*mpi.Request, 0, 64)
			for got := 0; got < total; {
				rs = rs[:0]
				batch := 64
				if total-got < batch {
					batch = total - got
				}
				for i := 0; i < batch; i++ {
					rs = append(rs, th.Irecv(c, mpi.AnySource, 0))
				}
				th.Waitall(rs) //simcheck:allow errdrop benchmark loop under the fatal handler; errors panic inside Waitall
				got += batch
			}
			stamp(th)
		})
		res.Messages = int64(p.Threads) * int64(p.Msgs)

	case PatternFanOut:
		w.Spawn(0, "source", func(th *mpi.Thread) {
			for i := 0; i < p.Threads*p.Msgs; i++ {
				th.Send(c, 1, i%p.Threads, p.MsgBytes, nil)
			}
			stamp(th)
		})
		for t := 0; t < p.Threads; t++ {
			t := t
			w.Spawn(1, "recv", func(th *mpi.Thread) {
				for i := 0; i < p.Msgs; i++ {
					th.Recv(c, 0, t)
				}
				stamp(th)
			})
		}
		res.Messages = int64(p.Threads) * int64(p.Msgs)

	case PatternComputeOverlap:
		// overlapComputeNs is the per-message computation each side
		// overlaps with its outstanding request.
		const overlapComputeNs = 2000
		for t := 0; t < p.Threads; t++ {
			t := t
			w.Spawn(0, "send", func(th *mpi.Thread) {
				for i := 0; i < p.Msgs; i++ {
					r := th.Isend(c, 1, t, p.MsgBytes, nil)
					th.S.Sleep(overlapComputeNs) // overlapped computation
					th.Wait(r)                   //simcheck:allow errdrop benchmark loop under the fatal handler; errors panic inside Wait
				}
				stamp(th)
			})
			w.Spawn(1, "recv", func(th *mpi.Thread) {
				for i := 0; i < p.Msgs; i++ {
					r := th.Irecv(c, 0, t)
					th.S.Sleep(overlapComputeNs)
					th.Wait(r) //simcheck:allow errdrop benchmark loop under the fatal handler; errors panic inside Wait
				}
				stamp(th)
			})
		}
		res.Messages = int64(p.Threads) * int64(p.Msgs)
	}

	if err := w.Run(); err != nil {
		return res, fmt.Errorf("pattern %v(%v): %w", p.Pattern, p.Lock, err)
	}
	res.SimNs = endAt
	if endAt > 0 {
		res.RateMsgsPerSec = float64(res.Messages) / (float64(endAt) / 1e9)
	}
	res.Net = w.NetStats()
	if p.Fault.Enabled() && !p.Fault.CrashesEnabled() {
		if err := w.CheckClean(); err != nil {
			return res, fmt.Errorf("pattern %v(%v): %w", p.Pattern, p.Lock, err)
		}
	}
	return res, nil
}
