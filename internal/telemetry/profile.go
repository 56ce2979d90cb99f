package telemetry

import (
	"fmt"
	"strings"

	"mpicontend/internal/machine"
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

// payloadKind reports whether a packet kind's flight counts as one
// message for the critical-path normalization.
func payloadKind(kind string) bool {
	switch kind {
	case "Eager", "RData", "RMAPut", "RMAGet", "RMAAcc":
		return true
	}
	return false
}

// Arbitration is the §4.3/§4.4 reading of one lock's grant stream.
type Arbitration struct {
	// Samples counts the contended grants the §4.3 estimators read: a
	// grant with a previous owner and at least one waiter.
	Samples int
	// BiasFactorCore and BiasFactorSocket divide the observed probability
	// that the previous owner, or a thread on its socket, wins the lock
	// again by that probability under a fair arbitration over the same
	// waiting sets (X_l = 1/T_l, Y_l = T_{j,l}/ΣT_i); a fair lock scores 1.
	BiasFactorCore, BiasFactorSocket float64
	// Grants counts the §4.4 samples: every grant of the lock.
	Grants int64
	// DanglingAvg and DanglingMax read the process's completed-but-not-
	// freed requests sampled at each grant.
	DanglingAvg float64
	DanglingMax int64
}

// Arbitration returns the §4.3/§4.4 reading of the last lock registered
// under name; ok is false when no lock has that name. It is kept out of
// Profile, so the profile JSON does not carry it.
func (r *Recorder) Arbitration(lock string) (a Arbitration, ok bool) {
	id := r.lockID(lock)
	if id < 0 {
		return a, false
	}
	if int(id) < len(r.locks) {
		a = r.locks[id].arbitration()
	}
	return a, true
}

// threadFold accumulates one simthread's share of the profile.
type threadFold struct {
	// seen is set by the first scheduler state, at firstAt; last is the
	// latest state, for dedupe.
	seen    bool
	last    uint8
	firstAt int64
	done    bool
	doneAt  int64
	// callNs sums MPI call spans; runtimeNs sums poll and lock spans,
	// the runtime time of threads that make no calls (progress daemons).
	callNs, runtimeNs int64
}

// appNs is the thread's application time: its first-run → done (or sim
// end) interval minus the time attributable to the runtime. Threads with
// MPI call spans subtract call time (polls and lock spans nest inside
// calls); pure runtime threads subtract their poll and lock time.
func (tf *threadFold) appNs(simEnd int64) int64 {
	if !tf.seen {
		return 0
	}
	end := simEnd
	if tf.done {
		end = tf.doneAt
	}
	mpiNs := tf.callNs
	if mpiNs == 0 {
		mpiNs = tf.runtimeNs
	}
	if app := end - tf.firstAt - mpiNs; end > tf.firstAt && app > 0 {
		return app
	}
	return 0
}

// lockThread is one thread's slot in a lock's fold.
type lockThread struct {
	acq      int64
	waitFrom int64 // start of the thread's latest wait span
	waited   bool
}

// lockFold accumulates one lock's statistics as its spans arrive, and
// runs the §4.3/§4.4 estimators over its grants. Its grant count is
// wait.Count(): each grant adds one wait sample.
type lockFold struct {
	wait, hold, handoff Hist
	acq                 [2]int64 // by class
	uncontended         int64
	useful              int64

	threads []lockThread // indexed by simthread id
	places  [][]int64    // acquisitions by [socket][core]

	lastEnd             int64
	lastThread          int32
	lastSock, lastCore  int16
	haveLast            bool
	runT, runC, runS    int64
	bestT, bestC, bestS int64

	waiting   WaitSet
	contended int // L: the contended grants sampled for §4.3
	// Σ X_l and Σ Y_l observed, Σ 1/T_l and Σ T_{j,l}/ΣT_i for the fair
	// baseline, over the contended grants.
	sameCore, sameSock, fairCore, fairSock float64
	danglingSum, danglingMax               int64 // §4.4, over every grant
}

// observeGrant folds one request→grant interval and samples the
// estimators at the grant. The previous owner is the last hold: the
// runtime records a hold before it releases the lock, and all holders of
// one process's lock share its node, so the socket alone decides "same
// socket".
func (lf *lockFold) observeGrant(thread int, place machine.Place, from, at int64, dangling int) {
	lf.wait.Add(at - from)
	if at == from {
		lf.uncontended++
	}
	lt := slot(&lf.threads, thread)
	lt.waitFrom, lt.waited = from, true
	lf.danglingSum += int64(dangling)
	lf.danglingMax = max(lf.danglingMax, int64(dangling))

	// The candidate set is the new owner plus everyone still waiting when
	// it won; without a previous owner or a choice there is no sample.
	g := lf.waiting.Grant(thread, place, at)
	if !lf.haveLast || len(g.Waiters) == 0 {
		return
	}
	total := float64(len(g.Waiters) + 1)
	lf.contended++
	if int32(thread) == lf.lastThread {
		lf.sameCore++
	}
	onLastSock := 0
	if int16(place.Socket) == lf.lastSock {
		lf.sameSock++
		onLastSock++
	}
	for _, w := range g.Waiters {
		if int16(w.Socket) == lf.lastSock {
			onLastSock++
		}
	}
	lf.fairCore += 1 / total
	lf.fairSock += float64(onLastSock) / total
}

// arbitration reads the estimators. Each bias factor is the ratio of the
// observed and fair means, (same/n)/(fair/n), not same/fair, which can
// round differently.
func (lf *lockFold) arbitration() Arbitration {
	a := Arbitration{Samples: lf.contended, Grants: lf.wait.Count(), DanglingMax: lf.danglingMax}
	if a.Grants > 0 {
		a.DanglingAvg = float64(lf.danglingSum) / float64(a.Grants)
	}
	if n := float64(lf.contended); n > 0 {
		if fair := lf.fairCore / n; fair > 0 {
			a.BiasFactorCore = lf.sameCore / n / fair
		}
		if fair := lf.fairSock / n; fair > 0 {
			a.BiasFactorSocket = lf.sameSock / n / fair
		}
	}
	return a
}

// observeHold folds one hold span into the lock's statistics.
func (lf *lockFold) observeHold(s *Span) {
	lf.hold.Add(s.End - s.Start)
	lf.acq[s.Class&1]++
	if s.Useful {
		lf.useful++
	}
	lt := slot(&lf.threads, int(s.Thread))
	lt.acq++
	*slot(slot(&lf.places, int(s.Sock)), int(s.Core))++

	if lf.haveLast {
		// Handoff latency: release → next grant, only when the next
		// holder was already waiting at the release (otherwise the gap is
		// idle time, not arbitration).
		if lt.waited && lt.waitFrom <= lf.lastEnd && s.Start >= lf.lastEnd {
			lf.handoff.Add(s.Start - lf.lastEnd)
		}
		if s.Thread == lf.lastThread {
			lf.runT++
		} else {
			lf.runT = 1
		}
		if s.Sock == lf.lastSock && s.Core == lf.lastCore {
			lf.runC++
		} else {
			lf.runC = 1
		}
		if s.Sock == lf.lastSock {
			lf.runS++
		} else {
			lf.runS = 1
		}
	} else {
		lf.runT, lf.runC, lf.runS = 1, 1, 1
	}
	lf.bestT = max(lf.bestT, lf.runT)
	lf.bestC = max(lf.bestC, lf.runC)
	lf.bestS = max(lf.bestS, lf.runS)
	lf.haveLast = true
	lf.lastEnd = s.End
	lf.lastThread = s.Thread
	lf.lastSock, lf.lastCore = s.Sock, s.Core
}

// profile renders the accumulated state as a LockProfile.
func (lf *lockFold) profile(name string) LockProfile {
	lp := LockProfile{
		Name:             name,
		Acquisitions:     lf.acq[0] + lf.acq[1],
		HighAcq:          lf.acq[0],
		LowAcq:           lf.acq[1],
		Uncontended:      lf.uncontended,
		UsefulAcq:        lf.useful,
		Wait:             lf.wait.Stats(),
		Hold:             lf.hold.Stats(),
		Handoff:          lf.handoff.Stats(),
		LongestRunThread: lf.bestT,
		LongestRunCore:   lf.bestC,
		LongestRunSocket: lf.bestS,
	}
	if lp.Acquisitions > 0 {
		var maxAcq int64
		for _, lt := range lf.threads {
			maxAcq = max(maxAcq, lt.acq)
		}
		lp.MaxThreadShare = float64(maxAcq) / float64(lp.Acquisitions)
		for sock, cores := range lf.places {
			for core, n := range cores {
				if n > 0 {
					lp.Places = append(lp.Places, PlaceCount{Socket: sock, Core: core, Acquisitions: n})
				}
			}
		}
	}
	return lp
}

// gauge folds one gauge timeline. A sample stays open until a later
// instant arrives, since a same-instant sample (batched completions or
// deliveries) replaces it; only closed samples reach max and weighted.
type gauge struct {
	log      []gaugeSample // every sample, kept by a logging recorder
	n        int64
	firstAt  int64
	open     gaugeSample
	max      int64
	weighted float64 // Σ value × duration over the closed samples
}

// sample folds one sample and reports whether it opened a new instant.
func (g *gauge) sample(at, value int64, keep bool) bool {
	if g.n > 0 && g.open.At == at {
		g.open.Value = value
		if keep {
			g.log[len(g.log)-1].Value = value
		}
		return false
	}
	if g.n > 0 {
		g.close(at)
	} else {
		g.firstAt = at
	}
	g.n++
	g.open = gaugeSample{At: at, Value: value}
	if keep {
		*slot(&g.log, len(g.log)) = g.open
	}
	return true
}

// close folds the open sample as lasting until end.
func (g *gauge) close(end int64) {
	g.max = max(g.max, g.open.Value)
	g.weighted += float64(g.open.Value) * float64(end-g.open.At)
}

// stats summarizes the timeline against the recorded horizon simEnd,
// closing the last sample there.
func (g gauge) stats(simEnd int64) GaugeStats {
	s := GaugeStats{Samples: g.n}
	if g.n == 0 {
		return s
	}
	g.close(simEnd)
	s.Max = g.max
	if span := simEnd - g.firstAt; span > 0 {
		s.TimeAvg = g.weighted / float64(span)
	} else {
		s.TimeAvg = float64(g.open.Value)
	}
	return s
}

// Profile renders the contention, progress and critical-path reports from
// the folds. Safe on a nil recorder (returns an empty profile).
func (r *Recorder) Profile() *Profile {
	p := &Profile{Schema: ProfileSchema}
	if r == nil {
		return p
	}
	p.SimEndNs = r.maxTs
	p.Spans = r.nspans
	p.Progress = r.progress
	p.CriticalPath = r.path
	for t := range r.threads {
		p.CriticalPath.AppNs += r.threads[t].appNs(r.maxTs)
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
	for i, name := range r.lockNames {
		var lf lockFold
		if i < len(r.locks) {
			lf = r.locks[i]
		}
		p.Locks = append(p.Locks, lf.profile(name))
	}
	p.Dangling = r.dangling.stats(r.maxTs)
	p.CompletionQueue = r.cqdepth.stats(r.maxTs)
	p.UnexpectedQueue = r.unexpected.Stats()
	p.Partitioned = PartitionedProfile{Lockfree: r.preadyFast, Trigger: r.preadyTrigger}
	if r.preadyTrigger > 0 {
		p.Partitioned.AggRatio = float64(r.preadyFast+r.preadyTrigger) / float64(r.preadyTrigger)
	}
	return p
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
