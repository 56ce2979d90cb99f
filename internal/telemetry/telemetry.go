// Package telemetry is the simulator's deterministic observability plane
// and its one lock observer.
//
// A Recorder observes spans (MPI call main paths, progress-loop polls,
// lock wait→hold intervals, fabric injection and flight), gauge timelines
// (dangling requests, completion-queue depth) and log-bucketed sim-time
// histograms (unexpected-queue residency), keyed entirely off the virtual
// clock, and folds each record as it arrives into per-lock contention
// profiles (§4.3), a progress-engine efficiency report (Fig. 6a) and a
// per-message critical-path breakdown. Each lock's fold also runs the
// §4.3 fairness estimators over the strict waiting sets (WaitSet) and
// the §4.4 dangling-request metric over the requests and grants the
// runtime reports (Arbitration). The profile's dangling gauge is
// world-wide and time-weighted; the §4.4 metric covers one lock's process
// and is sampled at that lock's grants. Timeline renders a lock's
// ownership as ASCII.
//
// New returns a fold-only recorder, whose memory does not grow with the
// run. NewTrace also keeps the span, scheduler and gauge logs that the
// Perfetto export and Timeline read; Profile never reads them.
//
// Everything is deterministic: no wall time, no map iteration escaping
// into output order, so two runs with the same seed produce byte-identical
// traces and profiles.
//
// The disabled path is free by construction: every recording method is a
// nil-receiver no-op, so hook sites compile down to a pointer nil check.
//
// telemetry is part of the deterministic core (docs/ARCHITECTURE.md).
package telemetry

import (
	"mpicontend/internal/machine"
	"mpicontend/internal/sim"
)

// SpanKind classifies a recorded interval.
type SpanKind uint8

// Span kinds, in the order tracks render them.
const (
	// SpanCall is an MPI call's main path on an application thread.
	SpanCall SpanKind = iota
	// SpanPoll is one progress-engine poll (cq drain attempt).
	SpanPoll
	// SpanWait is the interval between requesting a lock and being
	// granted it.
	SpanWait
	// SpanHold is a lock hold: grant to release.
	SpanHold
	// SpanInject is the NIC injection interval of one packet.
	SpanInject
	// SpanFlight is a packet's wire flight: injection end to delivery.
	SpanFlight
)

// String names the span kind.
func (k SpanKind) String() string {
	switch k {
	case SpanCall:
		return "call"
	case SpanPoll:
		return "poll"
	case SpanWait:
		return "wait"
	case SpanHold:
		return "hold"
	case SpanInject:
		return "inject"
	case SpanFlight:
		return "flight"
	default:
		return "span(?)"
	}
}

// Scheduling classes of lock spans, mirroring simlock.Class without
// importing it (telemetry sits below every simulation package).
const (
	// ClassHigh marks main-path acquisitions.
	ClassHigh uint8 = iota
	// ClassLow marks progress-loop acquisitions.
	ClassLow
)

// Span is one recorded interval on a track. Fields beyond Kind/Start/End
// are populated per kind: lock spans carry Lock/Class (holds also
// Sock/Core/Useful), fabric spans carry Lock as the destination endpoint
// and Arg as the byte count, polls carry Arg as the handled-event count.
type Span struct {
	Kind  SpanKind
	Class uint8
	// Useful marks a hold during which the progress engine handled at
	// least one completion event (the Fig. 6a useful/wasted split).
	Useful bool
	// Thread is the simthread id (call/poll/wait/hold) or the source
	// endpoint id (inject/flight).
	Thread int32
	// Lock is the lock id (wait/hold) or destination endpoint (flight);
	// -1 when not applicable.
	Lock       int32
	Sock, Core int16
	Start, End int64
	// Arg is the events handled (poll) or payload bytes (inject/flight).
	Arg int64
	// Name labels call spans (the MPI function) and fabric spans (the
	// packet kind). Always a static string, so recording does not allocate
	// beyond the span slot itself.
	Name string
}

// stateRec is one thread scheduling-state transition.
type stateRec struct {
	Thread int32
	State  uint8 // one of stateRun/stateBlocked/stateDone
	At     int64
}

// Merged scheduler states for the sched track: running and sleeping both
// consume the simulated core ("run"); parked threads are blocked on an
// external event.
const (
	stateRun uint8 = iota
	stateBlocked
	stateDone
	stateHidden // not rendered: a thread not yet dispatched
)

// schedStates maps each engine scheduling state onto the sched track.
var schedStates = [...]uint8{
	sim.StateNew:      stateHidden,
	sim.StateRunning:  stateRun,
	sim.StateSleeping: stateRun,
	sim.StateParked:   stateBlocked,
	sim.StateDone:     stateDone,
}

// gaugeSample is one point of a gauge timeline.
type gaugeSample struct {
	At    int64
	Value int64
}

// Recorder collects telemetry from a single simulated world. The zero
// value is a ready fold-only recorder; a nil *Recorder is a valid
// "disabled" recorder whose methods all no-op.
//
// Recorder is not internally synchronized — like everything in the
// simulator it relies on the engine's one-simthread-at-a-time execution.
type Recorder struct {
	// logs is set by NewTrace: spans, sched and the gauges' logs then
	// keep every record for the exports. The profile never reads them.
	logs  bool
	spans []Span
	sched []stateRec

	threadNames []string // indexed by simthread id; "" = unregistered
	lockNames   []string // indexed by lock id
	nicCount    int      // endpoints observed (ids are dense from 0)

	// Folds of the profile, updated as each record arrives.
	nspans     int64
	progress   ProgressProfile
	path       CriticalPath // totals; Profile adds AppNs and the averages
	threads    []threadFold // indexed by simthread id
	locks      []lockFold   // indexed by lock id
	dangling   gauge
	cqdepth    gauge
	unexpected Hist

	// Partitioned-communication counters (plain counts, no spans: the
	// Pready fast path must stay allocation-free).
	preadyFast    int64
	preadyTrigger int64

	maxTs int64
}

// New returns an enabled fold-only recorder: Profile and Arbitration, no
// span log.
func New() *Recorder { return &Recorder{} }

// NewTrace returns an enabled recorder that also keeps the span,
// scheduler and gauge logs read by Perfetto, Spans and Timeline.
func NewTrace() *Recorder { return &Recorder{logs: true} }

// Enabled reports whether the recorder is collecting (non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// touch extends the recorded horizon.
func (r *Recorder) touch(ts int64) {
	if ts > r.maxTs {
		r.maxTs = ts
	}
}

// RegisterThread names a simthread track. Threads must be registered
// before their first span so exports can label tracks; spans from
// unregistered ids still record (labelled "thread<N>").
func (r *Recorder) RegisterThread(id int, name string) {
	if r == nil {
		return
	}
	*slot(&r.threadNames, id) = name
}

// RegisterLock names a lock track and returns its id.
func (r *Recorder) RegisterLock(name string) int {
	if r == nil {
		return -1
	}
	r.lockNames = append(r.lockNames, name)
	return len(r.lockNames) - 1
}

// PreadyFast counts one lock-free (non-triggering) Pready call.
// Counter-only and allocation-free: it sits on the partitioned fast path,
// which takes no lock and records no span.
func (r *Recorder) PreadyFast() {
	if r == nil {
		return
	}
	r.preadyFast++
}

// PreadyTrigger counts one readiness-completing Pready — the call that
// entered the shard section and injected the epoch's aggregate.
func (r *Recorder) PreadyTrigger() {
	if r == nil {
		return
	}
	r.preadyTrigger++
}

// record counts one span and, on a logging recorder, keeps it.
func (r *Recorder) record(s Span) {
	r.nspans++
	if r.logs {
		*slot(&r.spans, len(r.spans)) = s
	}
	r.touch(s.End)
}

// ensureNIC widens the NIC track range to include id.
func (r *Recorder) ensureNIC(id int) {
	if id >= r.nicCount {
		r.nicCount = id + 1
	}
}

// Call records an MPI call span (Isend, Irecv, Wait, ...).
func (r *Recorder) Call(thread int, name string, start, end int64) {
	if r == nil {
		return
	}
	r.path.CallNs += end - start
	slot(&r.threads, thread).callNs += end - start
	r.record(Span{Kind: SpanCall, Thread: int32(thread),
		Lock: -1, Name: name, Start: start, End: end})
}

// Poll records one progress-engine poll that handled the given number of
// completion events.
func (r *Recorder) Poll(thread int, start, end int64, handled int) {
	if r == nil {
		return
	}
	r.progress.Polls++
	r.progress.EventsHandled += int64(handled)
	if handled > 0 {
		r.progress.UsefulPolls++
	}
	slot(&r.threads, thread).runtimeNs += end - start
	r.record(Span{Kind: SpanPoll, Thread: int32(thread),
		Lock: -1, Arg: int64(handled), Start: start, End: end})
}

// LockRequest records that thread, placed at place, asked for the lock
// at virtual time at. It opens the request in the lock's waiting set
// (WaitSet) and records no span: the wait span is recorded at the
// grant.
func (r *Recorder) LockRequest(lock, thread int, place machine.Place, at int64) {
	if r == nil {
		return
	}
	slot(&r.locks, lock).waiting.Request(thread, place, at)
}

// LockGrant records the grant of the lock to thread at virtual time at,
// after its request at from: the request→grant wait span, and one sample
// of the §4.3 estimators and of the §4.4 metric, dangling being the
// count of completed-but-not-freed requests of the lock's process.
func (r *Recorder) LockGrant(lock, thread int, class uint8, place machine.Place, from, at int64, dangling int) {
	if r == nil {
		return
	}
	r.path.LockWaitNs += at - from
	slot(&r.threads, thread).runtimeNs += at - from
	slot(&r.locks, lock).observeGrant(thread, place, from, at, dangling)
	r.record(Span{Kind: SpanWait, Thread: int32(thread),
		Lock: int32(lock), Class: class, Start: from, End: at})
}

// LockHold records a grant→release interval; useful marks holds that
// advanced the progress engine, (sock, core) is the holder's placement.
func (r *Recorder) LockHold(lock, thread int, class uint8, useful bool, sock, core int, start, end int64) {
	if r == nil {
		return
	}
	r.path.HoldNs += end - start
	slot(&r.threads, thread).runtimeNs += end - start
	if class == ClassLow {
		if useful {
			r.progress.UsefulLowAcq++
		} else {
			r.progress.WastedLowAcq++
		}
	}
	s := Span{Kind: SpanHold, Thread: int32(thread),
		Lock: int32(lock), Class: class, Useful: useful,
		Sock: int16(sock), Core: int16(core), Start: start, End: end}
	slot(&r.locks, lock).observeHold(&s)
	r.record(s)
}

// Inject records a packet's NIC injection interval on the source endpoint.
func (r *Recorder) Inject(nic int, kind string, bytes, start, end int64) {
	if r == nil {
		return
	}
	r.ensureNIC(nic)
	r.path.InjectNs += end - start
	r.record(Span{Kind: SpanInject, Thread: int32(nic),
		Lock: -1, Name: kind, Arg: bytes, Start: start, End: end})
}

// Flight records a packet's wire flight from injection end to delivery.
func (r *Recorder) Flight(src, dst int, kind string, bytes, start, end int64) {
	if r == nil {
		return
	}
	r.ensureNIC(src)
	r.ensureNIC(dst)
	r.path.WireNs += end - start
	if payloadKind(kind) {
		r.path.Messages++
	}
	r.record(Span{Kind: SpanFlight, Thread: int32(src),
		Lock: int32(dst), Name: kind, Arg: bytes, Start: start, End: end})
}

// Dangling samples the dangling-request gauge (completed-but-not-freed
// requests of the whole world) at the given time.
func (r *Recorder) Dangling(at, value int64) {
	if r == nil {
		return
	}
	r.sample(&r.dangling, at, value)
}

// CQDepth samples the completion-queue depth gauge (delivered-but-not-
// drained completions under continuation-mode progress) at the given
// time — the `cq.depth` metric of the progress experiment.
func (r *Recorder) CQDepth(at, value int64) {
	if r == nil {
		return
	}
	r.sample(&r.cqdepth, at, value)
}

// sample folds one gauge sample, extending the horizon when it opens a
// new instant.
func (r *Recorder) sample(g *gauge, at, value int64) {
	if g.sample(at, value, r.logs) {
		r.touch(at)
	}
}

// Unexpected records the residency of one message in the unexpected queue
// (arrival to match).
func (r *Recorder) Unexpected(residencyNs int64) {
	if r == nil {
		return
	}
	r.unexpected.Add(residencyNs)
}

// ThreadState records a scheduler-state transition reported by the engine.
// Engine states collapse onto the sched track's run/blocked/done alphabet;
// consecutive identical states dedupe.
func (r *Recorder) ThreadState(thread int, at int64, state sim.ThreadState) {
	if r == nil || uint(state) >= uint(len(schedStates)) {
		return
	}
	s := schedStates[state]
	if s == stateHidden {
		return
	}
	slot(&r.threadNames, thread)
	tf := slot(&r.threads, thread)
	if tf.seen && tf.last == s {
		return
	}
	if !tf.seen {
		tf.seen, tf.firstAt = true, at
	}
	if s == stateDone && !tf.done {
		tf.done, tf.doneAt = true, at
	}
	tf.last = s
	if r.logs {
		*slot(&r.sched, len(r.sched)) = stateRec{Thread: int32(thread), State: s, At: at}
	}
	r.touch(at)
}

// Spans returns the logged spans in record order (callers must not
// mutate); nil unless the recorder came from NewTrace.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Timeline returns the named lock's ownership timeline from the span log:
// its last n holds (all of them when n <= 0) in grant order. A hold span
// starts at its grant, and a lock's holds do not overlap, so their record
// order is the grant order. Empty unless the recorder came from NewTrace.
func (r *Recorder) Timeline(lock string, n int) Timeline {
	id := r.lockID(lock)
	var tl Timeline
	for i := range r.Spans() {
		if s := &r.spans[i]; s.Kind == SpanHold && s.Lock == id {
			tl = append(tl, TimelineGrant{At: s.Start, Thread: int(s.Thread)})
		}
	}
	if n > 0 && len(tl) > n {
		tl = tl[len(tl)-n:]
	}
	return tl
}

// SimEnd returns the largest timestamp observed.
func (r *Recorder) SimEnd() int64 {
	if r == nil {
		return 0
	}
	return r.maxTs
}

// lockID returns the id of the last lock registered under name, or -1:
// a recorder reused across runs answers for the latest run's lock.
func (r *Recorder) lockID(name string) int32 {
	if r == nil {
		return -1
	}
	for i := len(r.lockNames) - 1; i >= 0; i-- {
		if r.lockNames[i] == name {
			return int32(i)
		}
	}
	return -1
}

// slot returns &(*s)[i], first growing *s with zero values to cover i;
// slot(s, len(*s)) appends. It is the recorder's one growth site: the
// fold state grows only to the largest thread and lock id seen, and the
// logs of a NewTrace recorder grow amortized.
func slot[T any](s *[]T, i int) *T {
	if i >= len(*s) {
		//simcheck:allow hotalloc fold state grows to the largest id seen; only NewTrace recorders keep growing logs
		*s = append(*s, make([]T, i+1-len(*s))...)
	}
	return &(*s)[i]
}

// threadName labels a simthread track.
func (r *Recorder) threadName(id int32) string {
	if int(id) < len(r.threadNames) && r.threadNames[id] != "" {
		return r.threadNames[id]
	}
	return "thread" + itoa(int64(id))
}

// lockName labels a lock track.
func (r *Recorder) lockName(id int32) string {
	if id >= 0 && int(id) < len(r.lockNames) {
		return r.lockNames[id]
	}
	return "lock" + itoa(int64(id))
}

// itoa is a tiny strconv.FormatInt(v, 10) to keep hot paths free of
// imports here; only export paths call it.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
