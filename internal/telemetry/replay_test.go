package telemetry

import (
	"fmt"
	"sort"
)

// This file keeps the replay forms of Profile and Arbitration as the
// references the fold is checked against (fold_test.go): they derive the
// profile and the §4.3 readings afresh from a logging recorder's span,
// sched and gauge logs in record order.

// ReplayProfile derives the profile by replaying the logs of a NewTrace
// recorder.
func (r *Recorder) ReplayProfile() *Profile {
	p := &Profile{Schema: ProfileSchema}
	if r == nil {
		return p
	}
	p.SimEndNs = r.maxTs
	p.Spans = int64(len(r.spans))

	locks := make([]*replayLock, len(r.lockNames))
	for i := range locks {
		locks[i] = &replayLock{
			waitStart: map[int32]int64{},
			byThread:  map[int32]int64{},
			byPlace:   map[[2]int16]int64{},
		}
	}
	// Per-thread aggregates for the app-time estimate.
	nthreads := len(r.threadNames)
	callNs := make([]int64, nthreads)
	runtimeNs := make([]int64, nthreads) // poll+wait+hold, for daemon threads

	for i := range r.spans {
		s := &r.spans[i]
		d := s.End - s.Start
		switch s.Kind {
		case SpanCall:
			p.CriticalPath.CallNs += d
			if int(s.Thread) < nthreads {
				callNs[s.Thread] += d
			}
		case SpanPoll:
			p.Progress.Polls++
			p.Progress.EventsHandled += s.Arg
			if s.Arg > 0 {
				p.Progress.UsefulPolls++
			}
			if int(s.Thread) < nthreads {
				runtimeNs[s.Thread] += d
			}
		case SpanWait:
			p.CriticalPath.LockWaitNs += d
			if int(s.Thread) < nthreads {
				runtimeNs[s.Thread] += d
			}
			if int(s.Lock) < len(locks) {
				ls := locks[s.Lock]
				ls.wait.Add(d)
				if d == 0 {
					ls.uncontended++
				}
				ls.waitStart[s.Thread] = s.Start
			}
		case SpanHold:
			p.CriticalPath.HoldNs += d
			if int(s.Thread) < nthreads {
				runtimeNs[s.Thread] += d
			}
			if s.Class == ClassLow {
				if s.Useful {
					p.Progress.UsefulLowAcq++
				} else {
					p.Progress.WastedLowAcq++
				}
			}
			if int(s.Lock) < len(locks) {
				locks[s.Lock].observeHold(s, d)
			}
		case SpanInject:
			p.CriticalPath.InjectNs += d
		case SpanFlight:
			p.CriticalPath.WireNs += d
			if payloadKind(s.Name) {
				p.CriticalPath.Messages++
			}
		}
	}

	// App time: thread alive time minus time attributable to the runtime.
	alive := r.replayAliveNs()
	for t := 0; t < nthreads; t++ {
		mpiNs := callNs[t]
		if mpiNs == 0 {
			mpiNs = runtimeNs[t]
		}
		if app := alive[t] - mpiNs; app > 0 {
			p.CriticalPath.AppNs += app
		}
	}
	p.CriticalPath.UnexpectedNs = r.unexpected.Sum()
	if m := p.CriticalPath.Messages; m > 0 {
		fm := float64(m)
		p.CriticalPath.PerMessage = CriticalPathPerMsg{
			AppNs:        float64(p.CriticalPath.AppNs) / fm,
			CallNs:       float64(p.CriticalPath.CallNs) / fm,
			LockWaitNs:   float64(p.CriticalPath.LockWaitNs) / fm,
			HoldNs:       float64(p.CriticalPath.HoldNs) / fm,
			InjectNs:     float64(p.CriticalPath.InjectNs) / fm,
			WireNs:       float64(p.CriticalPath.WireNs) / fm,
			UnexpectedNs: float64(p.CriticalPath.UnexpectedNs) / fm,
		}
	}

	for i, ls := range locks {
		p.Locks = append(p.Locks, ls.profile(r.lockName(int32(i))))
	}
	p.Dangling = r.replayGauge(r.dangling.log)
	p.CompletionQueue = r.replayGauge(r.cqdepth.log)
	p.UnexpectedQueue = r.unexpected.Stats()
	p.Partitioned = PartitionedProfile{Lockfree: r.preadyFast, Trigger: r.preadyTrigger}
	if r.preadyTrigger > 0 {
		p.Partitioned.AggRatio = float64(r.preadyFast+r.preadyTrigger) / float64(r.preadyTrigger)
	}
	return p
}

// replayLock accumulates per-lock statistics during the span scan.
type replayLock struct {
	wait, hold, handoff Hist
	acq                 [2]int64 // by class
	uncontended         int64
	useful              int64

	// waitStart maps thread → wait-span start (lookup only; never ranged).
	waitStart map[int32]int64

	lastEnd             int64
	lastThread          int32
	lastSock, lastCore  int16
	haveLast            bool
	runT, runC, runS    int64
	bestT, bestC, bestS int64
	byThread            map[int32]int64
	byPlace             map[[2]int16]int64
}

// observeHold folds one hold span into the lock's statistics.
func (ls *replayLock) observeHold(s *Span, d int64) {
	ls.hold.Add(d)
	ls.acq[s.Class&1]++
	if s.Useful {
		ls.useful++
	}
	ls.byThread[s.Thread]++
	ls.byPlace[[2]int16{s.Sock, s.Core}]++

	if ls.haveLast {
		if ws, ok := ls.waitStart[s.Thread]; ok && ws <= ls.lastEnd && s.Start >= ls.lastEnd {
			ls.handoff.Add(s.Start - ls.lastEnd)
		}
		if s.Thread == ls.lastThread {
			ls.runT++
		} else {
			ls.runT = 1
		}
		if s.Sock == ls.lastSock && s.Core == ls.lastCore {
			ls.runC++
		} else {
			ls.runC = 1
		}
		if s.Sock == ls.lastSock {
			ls.runS++
		} else {
			ls.runS = 1
		}
	} else {
		ls.runT, ls.runC, ls.runS = 1, 1, 1
	}
	if ls.runT > ls.bestT {
		ls.bestT = ls.runT
	}
	if ls.runC > ls.bestC {
		ls.bestC = ls.runC
	}
	if ls.runS > ls.bestS {
		ls.bestS = ls.runS
	}
	ls.haveLast = true
	ls.lastEnd = s.End
	ls.lastThread = s.Thread
	ls.lastSock, ls.lastCore = s.Sock, s.Core
}

// profile renders the accumulated state as a LockProfile.
func (ls *replayLock) profile(name string) LockProfile {
	lp := LockProfile{
		Name:             name,
		Acquisitions:     ls.acq[0] + ls.acq[1],
		HighAcq:          ls.acq[0],
		LowAcq:           ls.acq[1],
		Uncontended:      ls.uncontended,
		UsefulAcq:        ls.useful,
		Wait:             ls.wait.Stats(),
		Hold:             ls.hold.Stats(),
		Handoff:          ls.handoff.Stats(),
		LongestRunThread: ls.bestT,
		LongestRunCore:   ls.bestC,
		LongestRunSocket: ls.bestS,
	}
	if lp.Acquisitions > 0 {
		var maxAcq int64
		for _, n := range ls.byThread {
			if n > maxAcq {
				maxAcq = n
			}
		}
		lp.MaxThreadShare = float64(maxAcq) / float64(lp.Acquisitions)

		var places [][2]int16
		for pl := range ls.byPlace {
			places = append(places, pl)
		}
		sort.Slice(places, func(i, j int) bool {
			if places[i][0] != places[j][0] {
				return places[i][0] < places[j][0]
			}
			return places[i][1] < places[j][1]
		})
		for _, pl := range places {
			lp.Places = append(lp.Places, PlaceCount{
				Socket: int(pl[0]), Core: int(pl[1]),
				Acquisitions: ls.byPlace[pl],
			})
		}
	}
	return lp
}

// replayAliveNs computes each thread's first-run → done (or sim end)
// interval from the sched records.
func (r *Recorder) replayAliveNs() []int64 {
	first := make([]int64, len(r.threadNames))
	last := make([]int64, len(r.threadNames))
	seen := make([]bool, len(r.threadNames))
	done := make([]bool, len(r.threadNames))
	for _, rec := range r.sched {
		t := int(rec.Thread)
		if t >= len(first) {
			continue
		}
		if !seen[t] {
			seen[t] = true
			first[t] = rec.At
		}
		if rec.State == stateDone && !done[t] {
			done[t] = true
			last[t] = rec.At
		}
	}
	out := make([]int64, len(first))
	for t := range first {
		if !seen[t] {
			continue
		}
		end := r.maxTs
		if done[t] {
			end = last[t]
		}
		if end > first[t] {
			out[t] = end - first[t]
		}
	}
	return out
}

// replayGauge summarizes one gauge log against the recorded horizon.
func (r *Recorder) replayGauge(samples []gaugeSample) GaugeStats {
	g := GaugeStats{Samples: int64(len(samples))}
	if len(samples) == 0 {
		return g
	}
	var weighted float64
	for i, s := range samples {
		if s.Value > g.Max {
			g.Max = s.Value
		}
		end := r.maxTs
		if i+1 < len(samples) {
			end = samples[i+1].At
		}
		weighted += float64(s.Value) * float64(end-s.At)
	}
	if span := r.maxTs - samples[0].At; span > 0 {
		g.TimeAvg = weighted / float64(span)
	} else {
		g.TimeAvg = float64(samples[len(samples)-1].Value)
	}
	return g
}

// CheckArbitration compares every lock's folded §4.3 reading and grant
// count with replayArbitration's; the §4.4 dangling fields are not
// compared, since no span carries the count sampled at a grant.
func (r *Recorder) CheckArbitration() error {
	for id, name := range r.lockNames {
		var fold Arbitration
		if id < len(r.locks) {
			fold = r.locks[id].arbitration()
		}
		fold.DanglingAvg, fold.DanglingMax = 0, 0
		if replay := r.replayArbitration(int32(id)); fold != replay {
			return fmt.Errorf("lock %s: folded arbitration %+v, replayed %+v", name, fold, replay)
		}
	}
	return nil
}

// replayArbitration derives one lock's §4.3 reading from its wait and
// hold spans with the per-grant analysis: the k-th wait span is the k-th
// grant, at its End, and the k-th hold span places it; the previous owner
// is grant k-1; the waiters at grant k are the later-granted wait spans
// that Start before it. A request never granted (a daemon still waiting
// when the run ends) leaves no wait span, so those are read from the
// residue of the lock's wait set and wait at every later grant.
func (r *Recorder) replayArbitration(lock int32) Arbitration {
	var waits, holds []*Span
	for i := range r.spans {
		switch s := &r.spans[i]; {
		case s.Lock != lock:
		case s.Kind == SpanWait:
			waits = append(waits, s)
		case s.Kind == SpanHold:
			holds = append(holds, s)
		}
	}
	var open []waitReq
	if int(lock) < len(r.locks) {
		open = r.locks[lock].waiting.reqs
	}
	a := Arbitration{Grants: int64(len(waits))}
	var sameCore, sameSock, fairCore, fairSock float64
	for k := 1; k < len(waits) && k < len(holds); k++ {
		at, prevSock := waits[k].End, holds[k-1].Sock
		total, onPrevSock := 1, 0
		if holds[k].Sock == prevSock {
			onPrevSock++
		}
		for j := k + 1; j < len(waits) && j < len(holds); j++ {
			if waits[j].Start < at {
				total++
				if holds[j].Sock == prevSock {
					onPrevSock++
				}
			}
		}
		for _, q := range open {
			if q.at < at {
				total++
				if int16(q.place.Socket) == prevSock {
					onPrevSock++
				}
			}
		}
		if total < 2 {
			continue
		}
		a.Samples++
		if waits[k].Thread == waits[k-1].Thread {
			sameCore++
		}
		if holds[k].Sock == prevSock {
			sameSock++
		}
		fairCore += 1.0 / float64(total)
		fairSock += float64(onPrevSock) / float64(total)
	}
	if n := float64(a.Samples); n > 0 {
		if fair := fairCore / n; fair > 0 {
			a.BiasFactorCore = (sameCore / n) / fair
		}
		if fair := fairSock / n; fair > 0 {
			a.BiasFactorSocket = (sameSock / n) / fair
		}
	}
	return a
}
