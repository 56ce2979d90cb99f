// Package trace implements the paper's profiling math: the §4.3
// arbitration-fairness estimators (Pc, Ps and their bias factors against a
// fair arbitration), the §4.4 dangling-request profiler sampled at lock
// acquisition granularity, and the ASCII lock-ownership timeline. It holds
// no observer of its own: the telemetry recorder (internal/telemetry) runs
// one WaitSet, FairnessAnalyzer and DanglingProfiler per lock over the
// grant stream the runtime's critical-section wrapper reports, and the
// lock models themselves carry no observation hooks.
//
// trace is part of the deterministic core (docs/ARCHITECTURE.md).
package trace

import "mpicontend/internal/machine"

// Grant describes one critical-section acquisition at the moment a thread
// becomes the owner. It carries everything the §4.3 estimators need.
type Grant struct {
	At       int64
	ThreadID int
	Place    machine.Place
	// Waiters holds the placements of the threads waiting for the lock
	// at the grant (the new owner excluded), in request order. It is
	// only valid during the observer call.
	Waiters []machine.Place
}

// WaitSet owns the waiting-set rule for one lock: a thread is waiting at
// a grant if it asked for the lock strictly before the grant's virtual
// time and has not been granted yet. A request made at the grant instant
// itself is not a waiter, so the set does not depend on the order in which
// the engine runs same-time events. The zero value is empty and ready.
type WaitSet struct {
	reqs    []waitReq
	waiters []machine.Place // scratch for Grant.Waiters, reused per grant
}

type waitReq struct {
	id    int
	place machine.Place
	at    int64
}

// Request records that thread id, placed at place, asked for the lock at
// virtual time at.
func (s *WaitSet) Request(id int, place machine.Place, at int64) {
	s.reqs = grow(s.reqs, waitReq{id: id, place: place, at: at})
}

// Grant retires thread id's request and describes its acquisition at
// virtual time at. The returned Waiters alias scratch storage that the
// next Grant call overwrites.
func (s *WaitSet) Grant(id int, place machine.Place, at int64) Grant {
	ws, n := s.waiters[:0], 0
	for _, r := range s.reqs {
		if r.id == id {
			continue
		}
		s.reqs[n] = r
		n++
		if r.at < at {
			ws = grow(ws, r.place)
		}
	}
	s.reqs, s.waiters = s.reqs[:n], ws
	return Grant{At: at, ThreadID: id, Place: place, Waiters: ws}
}

// grow appends v to s.
func grow[T any](s []T, v T) []T {
	//simcheck:allow hotalloc the wait set keeps its arrays; they grow only to the most requests ever open at once
	return append(s, v)
}

// FairnessAnalyzer consumes the lock-grant stream and computes the paper's
// §4.3 estimators:
//
//	Pc — probability that the same thread reacquires the lock successively
//	     (core level);
//	Ps — probability that the new owner runs on the same socket as the
//	     previous owner (socket level);
//
// each measured for the observed arbitration and for a hypothetical fair
// arbitration over the same waiting sets (X_l = 1/T_l, Y_l = T_{j,l}/ΣT_i).
// BiasFactor* = P_observed / P_fair; a fair lock scores 1.
type FairnessAnalyzer struct {
	havePrev  bool
	prevID    int
	prevPlace machine.Place

	n           int     // L: contended acquisitions counted
	sumSameCore float64 // Σ X_l (observed)
	sumSameSock float64 // Σ Y_l (observed)
	sumFairCore float64 // Σ 1/T_l
	sumFairSock float64 // Σ T_{j,l}/ΣT_i
}

// Observe processes one grant. Grants with an empty waiting set are
// uncontended hand-offs and are skipped: arbitration is only defined when
// there is a choice to make.
func (f *FairnessAnalyzer) Observe(gi Grant) {
	if !f.havePrev {
		f.havePrev = true
		f.prevID = gi.ThreadID
		f.prevPlace = gi.Place
		return
	}
	// The candidate set for acquisition l is the new owner plus everyone
	// still waiting when it won.
	total := len(gi.Waiters) + 1
	if total < 2 {
		// No competition: record owner and move on.
		f.prevID = gi.ThreadID
		f.prevPlace = gi.Place
		return
	}
	f.n++
	if gi.ThreadID == f.prevID {
		f.sumSameCore++
	}
	if gi.Place.SameSocket(f.prevPlace) {
		f.sumSameSock++
	}
	f.sumFairCore += 1.0 / float64(total)
	onPrevSocket := 0
	if gi.Place.SameSocket(f.prevPlace) {
		onPrevSocket++
	}
	for _, w := range gi.Waiters {
		if w.SameSocket(f.prevPlace) {
			onPrevSocket++
		}
	}
	f.sumFairSock += float64(onPrevSocket) / float64(total)

	f.prevID = gi.ThreadID
	f.prevPlace = gi.Place
}

// Samples returns the number of contended acquisitions analysed.
func (f *FairnessAnalyzer) Samples() int { return f.n }

// Pc returns the observed same-core reacquisition probability.
func (f *FairnessAnalyzer) Pc() float64 { return ratio(f.sumSameCore, f.n) }

// Ps returns the observed same-socket probability.
func (f *FairnessAnalyzer) Ps() float64 { return ratio(f.sumSameSock, f.n) }

// FairPc returns the fair-arbitration baseline for Pc.
func (f *FairnessAnalyzer) FairPc() float64 { return ratio(f.sumFairCore, f.n) }

// FairPs returns the fair-arbitration baseline for Ps.
func (f *FairnessAnalyzer) FairPs() float64 { return ratio(f.sumFairSock, f.n) }

// BiasFactorCore returns Pc / FairPc (1 means fair).
func (f *FairnessAnalyzer) BiasFactorCore() float64 {
	if fp := f.FairPc(); fp > 0 {
		return f.Pc() / fp
	}
	return 0
}

// BiasFactorSocket returns Ps / FairPs (1 means fair).
func (f *FairnessAnalyzer) BiasFactorSocket() float64 {
	if fp := f.FairPs(); fp > 0 {
		return f.Ps() / fp
	}
	return 0
}

func ratio(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// DanglingProfiler implements the §4.4 metric: the number of requests that
// are completed but not yet freed, sampled at every lock acquisition, and
// averaged over the run. The runtime reports the count with each grant.
type DanglingProfiler struct {
	samples int64
	sum     int64
	max     int64
}

// Observe samples the metric at one grant: count requests are dangling.
func (d *DanglingProfiler) Observe(count int) {
	c := int64(count)
	d.samples++
	d.sum += c
	if c > d.max {
		d.max = c
	}
}

// Average returns the mean number of dangling requests per sample.
func (d *DanglingProfiler) Average() float64 {
	if d.samples == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.samples)
}

// Max returns the largest sampled value.
func (d *DanglingProfiler) Max() int64 { return d.max }

// SamplesTaken returns the number of samples recorded.
func (d *DanglingProfiler) SamplesTaken() int64 { return d.samples }
