// Package telemetry is the simulator's deterministic observability plane.
//
// A Recorder collects spans (MPI call main paths, progress-loop polls,
// lock wait→hold intervals, fabric injection and flight), gauge timelines
// (dangling requests, §4.4) and log-bucketed sim-time histograms
// (unexpected-queue residency) keyed entirely off the virtual clock. From
// that one span stream it derives the paper's analyses — per-lock
// contention profiles with wait-time distributions, handoff latency and
// monopolization run lengths (§4.3), a progress-engine efficiency report
// (useful vs. wasted acquisitions, Fig. 6a), and a per-message
// critical-path breakdown — and exports them as Chrome
// trace_event/Perfetto JSON and a flat JSON results schema.
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
	stateNone // sentinel: no state recorded yet
)

// gaugeSample is one point of a gauge timeline.
type gaugeSample struct {
	At    int64
	Value int64
}

// Recorder collects telemetry from a single simulated world. The zero
// value is ready to use; a nil *Recorder is a valid "disabled" recorder
// whose methods all no-op.
//
// Recorder is not internally synchronized — like everything in the
// simulator it relies on the engine's one-simthread-at-a-time execution.
type Recorder struct {
	spans []Span

	threadNames []string // indexed by simthread id; "" = unregistered
	lockNames   []string // indexed by lock id
	nicCount    int      // endpoints observed (ids are dense from 0)

	sched     []stateRec
	lastState []uint8 // per-thread last recorded state, for dedupe

	dangling   []gaugeSample
	cqdepth    []gaugeSample
	unexpected Hist

	// Partitioned-communication counters (plain counts, no spans: the
	// Pready fast path must stay allocation-free).
	preadyFast    int64
	preadyTrigger int64

	maxTs int64
}

// New returns an enabled recorder.
func New() *Recorder { return &Recorder{} }

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
	for len(r.threadNames) <= id {
		r.threadNames = append(r.threadNames, "")
		r.lastState = append(r.lastState, stateNone)
	}
	r.threadNames[id] = name
}

// RegisterLock names a lock track and returns its id.
func (r *Recorder) RegisterLock(name string) int {
	if r == nil {
		return -1
	}
	r.lockNames = append(r.lockNames, name)
	return len(r.lockNames) - 1
}

// PreadyFast counts one lock-free (non-triggering) Pready/PreadyRange
// call. Counter-only and allocation-free: it sits on the partitioned fast
// path, which takes no lock and records no span.
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

// span appends one span to the trace buffer.
func (r *Recorder) span(s Span) {
	//simcheck:allow hotalloc amortized trace-buffer growth; the recorder is opt-in
	r.spans = append(r.spans, s)
	r.touch(s.End)
}

// sample appends one gauge sample, collapsing same-instant samples
// (batched completions or deliveries) to the last.
func (r *Recorder) sample(g *[]gaugeSample, at, value int64) {
	if n := len(*g); n > 0 && (*g)[n-1].At == at {
		(*g)[n-1].Value = value
		return
	}
	//simcheck:allow hotalloc amortized gauge-sample growth; the recorder is opt-in
	*g = append(*g, gaugeSample{At: at, Value: value})
	r.touch(at)
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
	r.span(Span{Kind: SpanCall, Thread: int32(thread),
		Lock: -1, Name: name, Start: start, End: end})
}

// Poll records one progress-engine poll that handled the given number of
// completion events.
func (r *Recorder) Poll(thread int, start, end int64, handled int) {
	if r == nil {
		return
	}
	r.span(Span{Kind: SpanPoll, Thread: int32(thread),
		Lock: -1, Arg: int64(handled), Start: start, End: end})
}

// LockWait records the request→grant interval of one acquisition.
func (r *Recorder) LockWait(lock, thread int, class uint8, start, end int64) {
	if r == nil {
		return
	}
	r.span(Span{Kind: SpanWait, Thread: int32(thread),
		Lock: int32(lock), Class: class, Start: start, End: end})
}

// LockHold records a grant→release interval; useful marks holds that
// advanced the progress engine, (sock, core) is the holder's placement.
func (r *Recorder) LockHold(lock, thread int, class uint8, useful bool, sock, core int, start, end int64) {
	if r == nil {
		return
	}
	r.span(Span{Kind: SpanHold, Thread: int32(thread),
		Lock: int32(lock), Class: class, Useful: useful,
		Sock: int16(sock), Core: int16(core), Start: start, End: end})
}

// Inject records a packet's NIC injection interval on the source endpoint.
func (r *Recorder) Inject(nic int, kind string, bytes, start, end int64) {
	if r == nil {
		return
	}
	r.ensureNIC(nic)
	r.span(Span{Kind: SpanInject, Thread: int32(nic),
		Lock: -1, Name: kind, Arg: bytes, Start: start, End: end})
}

// Flight records a packet's wire flight from injection end to delivery.
func (r *Recorder) Flight(src, dst int, kind string, bytes, start, end int64) {
	if r == nil {
		return
	}
	r.ensureNIC(src)
	r.ensureNIC(dst)
	r.span(Span{Kind: SpanFlight, Thread: int32(src),
		Lock: int32(dst), Name: kind, Arg: bytes, Start: start, End: end})
}

// Dangling samples the dangling-request gauge (completed-but-not-freed
// requests, §4.4) at the given time.
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
func (r *Recorder) ThreadState(thread int, at int64, state string) {
	if r == nil {
		return
	}
	var s uint8
	switch state {
	case "running", "sleeping":
		s = stateRun
	case "parked":
		s = stateBlocked
	case "done":
		s = stateDone
	default:
		return // "new" and unknown states don't render
	}
	for len(r.lastState) <= thread {
		r.lastState = append(r.lastState, stateNone)
		r.threadNames = append(r.threadNames, "")
	}
	if r.lastState[thread] == s {
		return
	}
	r.lastState[thread] = s
	r.sched = append(r.sched, stateRec{Thread: int32(thread), State: s, At: at})
	r.touch(at)
}

// Spans returns the recorded spans in record order (callers must not
// mutate).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SimEnd returns the largest timestamp observed.
func (r *Recorder) SimEnd() int64 {
	if r == nil {
		return 0
	}
	return r.maxTs
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
