package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// ProfileSchema tags the profile JSON layout.
const ProfileSchema = "mpicontend/profile/v1"

// PlaceCount is the acquisition count of one (socket, core) slot: the
// per-placement view of a lock's grant stream.
type PlaceCount struct {
	Socket       int   `json:"socket"`
	Core         int   `json:"core"`
	Acquisitions int64 `json:"acquisitions"`
}

// LockProfile is the per-lock contention report (§4.3): wait-time
// distribution, handoff latency, and monopolization run lengths.
type LockProfile struct {
	Name         string `json:"name"`
	Acquisitions int64  `json:"acquisitions"`
	HighAcq      int64  `json:"high_acq"`
	LowAcq       int64  `json:"low_acq"`
	// Uncontended counts acquisitions granted in zero simulated time.
	Uncontended int64 `json:"uncontended"`
	// UsefulAcq counts holds that advanced the progress engine (handled
	// at least one completion event) — the Fig. 6a useful/wasted split.
	UsefulAcq int64     `json:"useful_acq"`
	Wait      HistStats `json:"wait"`
	Hold      HistStats `json:"hold"`
	// Handoff is the release→grant latency, measured only when the next
	// holder was already waiting at release time (a true handoff; gaps
	// where the lock sat idle are not handoffs).
	Handoff HistStats `json:"handoff"`
	// Monopolization: longest streak of consecutive acquisitions by the
	// same thread / core / socket (§4.3's unfairness mechanism).
	LongestRunThread int64 `json:"longest_run_thread"`
	LongestRunCore   int64 `json:"longest_run_core"`
	LongestRunSocket int64 `json:"longest_run_socket"`
	// MaxThreadShare is the largest fraction of acquisitions taken by a
	// single thread (1/nthreads = perfectly fair).
	MaxThreadShare float64 `json:"max_thread_share"`
	// Places lists acquisitions by holder placement, sorted by
	// (socket, core).
	Places []PlaceCount `json:"places,omitempty"`
}

// ProgressProfile is the progress-engine efficiency report (Fig. 6a):
// how often polls found work, and how many low-priority (progress-loop)
// lock acquisitions were wasted.
type ProgressProfile struct {
	Polls         int64 `json:"polls"`
	UsefulPolls   int64 `json:"useful_polls"`
	EventsHandled int64 `json:"events_handled"`
	// UsefulLowAcq / WastedLowAcq split progress-loop (low-class) lock
	// holds by whether they handled a completion event.
	UsefulLowAcq int64 `json:"useful_low_acq"`
	WastedLowAcq int64 `json:"wasted_low_acq"`
}

// CriticalPath is the per-message critical-path breakdown: where the
// simulated time of the run went, normalized per payload message.
type CriticalPath struct {
	// Messages counts payload-bearing flights (Eager, RData, RMA data).
	Messages int64 `json:"messages"`
	// Totals in simulated ns.
	AppNs        int64 `json:"app_ns"`
	CallNs       int64 `json:"call_ns"`
	LockWaitNs   int64 `json:"lock_wait_ns"`
	HoldNs       int64 `json:"hold_ns"`
	InjectNs     int64 `json:"inject_ns"`
	WireNs       int64 `json:"wire_ns"`
	UnexpectedNs int64 `json:"unexpected_ns"`
	// Per-message averages of the same quantities.
	PerMessage CriticalPathPerMsg `json:"per_message"`
}

// CriticalPathPerMsg holds the per-message averages of CriticalPath.
type CriticalPathPerMsg struct {
	AppNs        float64 `json:"app_ns"`
	CallNs       float64 `json:"call_ns"`
	LockWaitNs   float64 `json:"lock_wait_ns"`
	HoldNs       float64 `json:"hold_ns"`
	InjectNs     float64 `json:"inject_ns"`
	WireNs       float64 `json:"wire_ns"`
	UnexpectedNs float64 `json:"unexpected_ns"`
}

// GaugeStats summarizes a gauge timeline.
type GaugeStats struct {
	Samples int64 `json:"samples"`
	Max     int64 `json:"max"`
	// TimeAvg is the time-weighted average over the sampled interval
	// (the §4.4 "average dangling requests" metric).
	TimeAvg float64 `json:"time_avg"`
}

// PartitionedProfile reports the partitioned-communication counters: how
// many Pready calls stayed on the lock-free path versus triggered the
// aggregated transfer. AggRatio is partitions per aggregate — (Lockfree +
// Trigger) / Trigger when every partition gets one Pready.
type PartitionedProfile struct {
	Lockfree int64   `json:"lockfree"`
	Trigger  int64   `json:"trigger"`
	AggRatio float64 `json:"agg_ratio"`
}

// Profile is the derived analysis of one recorded run.
type Profile struct {
	Schema          string             `json:"schema"`
	SimEndNs        int64              `json:"sim_end_ns"`
	Spans           int64              `json:"spans"`
	Locks           []LockProfile      `json:"locks"`
	Progress        ProgressProfile    `json:"progress"`
	CriticalPath    CriticalPath       `json:"critical_path"`
	Dangling        GaugeStats         `json:"dangling"`
	CompletionQueue GaugeStats         `json:"completion_queue"`
	UnexpectedQueue HistStats          `json:"unexpected_queue"`
	Partitioned     PartitionedProfile `json:"partitioned"`
}

// payloadKinds are the packet kinds whose flight counts as one message
// for the critical-path normalization.
var payloadKinds = map[string]bool{
	"Eager": true, "RData": true, "RMAPut": true, "RMAGet": true, "RMAAcc": true,
}

// lockState accumulates per-lock statistics during the span scan.
type lockState struct {
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

// Profile derives the contention, progress and critical-path reports from
// the span stream. Safe on a nil recorder (returns an empty profile).
func (r *Recorder) Profile() *Profile {
	p := &Profile{Schema: ProfileSchema}
	if r == nil {
		return p
	}
	p.SimEndNs = r.maxTs
	p.Spans = int64(len(r.spans))

	locks := make([]*lockState, len(r.lockNames))
	for i := range locks {
		locks[i] = &lockState{
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
			if payloadKinds[s.Name] {
				p.CriticalPath.Messages++
			}
		}
	}

	// App time: thread alive time minus time attributable to the runtime.
	// Threads with MPI call spans subtract call time (polls and lock spans
	// nest inside calls); pure runtime threads (async progress daemons)
	// subtract their poll/lock time directly.
	alive := r.aliveNs()
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
	p.Dangling = r.danglingStats()
	p.CompletionQueue = r.gaugeStats(r.cqdepth)
	p.UnexpectedQueue = r.unexpected.Stats()
	p.Partitioned = PartitionedProfile{Lockfree: r.preadyFast, Trigger: r.preadyTrigger}
	if r.preadyTrigger > 0 {
		p.Partitioned.AggRatio = float64(r.preadyFast+r.preadyTrigger) / float64(r.preadyTrigger)
	}
	return p
}

// observeHold folds one hold span into the lock's statistics.
func (ls *lockState) observeHold(s *Span, d int64) {
	ls.hold.Add(d)
	ls.acq[s.Class&1]++
	if s.Useful {
		ls.useful++
	}
	ls.byThread[s.Thread]++
	ls.byPlace[[2]int16{s.Sock, s.Core}]++

	if ls.haveLast {
		// Handoff latency: release → next grant, only when the next
		// holder was already waiting at the release (otherwise the gap is
		// idle time, not arbitration).
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
func (ls *lockState) profile(name string) LockProfile {
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
		var threads []int32
		for t := range ls.byThread {
			threads = append(threads, t)
		}
		sort.Slice(threads, func(i, j int) bool { return threads[i] < threads[j] })
		var maxAcq int64
		for _, t := range threads {
			if ls.byThread[t] > maxAcq {
				maxAcq = ls.byThread[t]
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

// aliveNs computes each thread's first-run → done (or sim end) interval
// from the sched records.
func (r *Recorder) aliveNs() []int64 {
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

// danglingStats summarizes the dangling-request gauge timeline.
func (r *Recorder) danglingStats() GaugeStats {
	return r.gaugeStats(r.dangling)
}

// gaugeStats summarizes one gauge timeline against the recorded horizon.
func (r *Recorder) gaugeStats(samples []gaugeSample) GaugeStats {
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

// Text renders the profile as a compact deterministic report for CLI
// output.
func (p *Profile) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry profile (sim end %d ns, %d spans)\n", p.SimEndNs, p.Spans)
	for _, l := range p.Locks {
		fmt.Fprintf(&b, "lock %-12s %d acq (high %d, low %d; uncontended %d, useful %d)\n",
			l.Name, l.Acquisitions, l.HighAcq, l.LowAcq, l.Uncontended, l.UsefulAcq)
		if l.Acquisitions == 0 {
			continue
		}
		fmt.Fprintf(&b, "  wait    %s\n", histLine(l.Wait))
		fmt.Fprintf(&b, "  hold    %s\n", histLine(l.Hold))
		fmt.Fprintf(&b, "  handoff %s\n", histLine(l.Handoff))
		fmt.Fprintf(&b, "  monopolization: run thread=%d core=%d socket=%d; max thread share %.1f%%\n",
			l.LongestRunThread, l.LongestRunCore, l.LongestRunSocket, 100*l.MaxThreadShare)
		for _, pc := range l.Places {
			fmt.Fprintf(&b, "    s%d.c%d %d\n", pc.Socket, pc.Core, pc.Acquisitions)
		}
	}
	pr := p.Progress
	fmt.Fprintf(&b, "progress: %d polls (%d useful), %d events; low-class holds useful %d / wasted %d\n",
		pr.Polls, pr.UsefulPolls, pr.EventsHandled, pr.UsefulLowAcq, pr.WastedLowAcq)
	cp := p.CriticalPath
	fmt.Fprintf(&b, "critical path: %d messages; per msg app %.0f, call %.0f, lock wait %.0f, hold %.0f, inject %.0f, wire %.0f, unexpected %.0f ns\n",
		cp.Messages, cp.PerMessage.AppNs, cp.PerMessage.CallNs, cp.PerMessage.LockWaitNs,
		cp.PerMessage.HoldNs, cp.PerMessage.InjectNs, cp.PerMessage.WireNs, cp.PerMessage.UnexpectedNs)
	fmt.Fprintf(&b, "dangling: avg %.2f, max %d (%d samples)\n",
		p.Dangling.TimeAvg, p.Dangling.Max, p.Dangling.Samples)
	if p.CompletionQueue.Samples > 0 {
		// Only continuation-mode runs sample the gauge; keeping the line
		// out otherwise preserves pre-existing report output.
		fmt.Fprintf(&b, "completion queue: avg depth %.2f, max %d (%d samples)\n",
			p.CompletionQueue.TimeAvg, p.CompletionQueue.Max, p.CompletionQueue.Samples)
	}
	if p.Partitioned.Lockfree+p.Partitioned.Trigger > 0 {
		// Only partitioned runs bump the counters; keeping the line out
		// otherwise preserves pre-existing report output.
		fmt.Fprintf(&b, "partitioned: pready.lockfree=%d pready.trigger=%d aggregation ratio %.1f partitions/transfer\n",
			p.Partitioned.Lockfree, p.Partitioned.Trigger, p.Partitioned.AggRatio)
	}
	fmt.Fprintf(&b, "unexpected queue: %s\n", histLine(p.UnexpectedQueue))
	return b.String()
}

// histLine renders a HistStats one-liner.
func histLine(h HistStats) string {
	if h.Count == 0 {
		return "(no samples)"
	}
	return fmt.Sprintf("n=%-7d mean=%.0fns p50<=%dns p90<=%dns p99<=%dns max=%dns",
		h.Count, h.MeanNs, h.P50Ns, h.P90Ns, h.P99Ns, h.MaxNs)
}
