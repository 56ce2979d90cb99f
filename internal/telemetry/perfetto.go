package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// Process (track-group) ids of the exported trace. Perfetto renders one
// group per pid; tids within a group are the individual tracks.
const (
	pidThreads = 1 // one track per simthread: calls, polls, lock waits
	pidLocks   = 2 // one track per lock: holds, labelled by holder
	pidFabric  = 3 // one track per NIC: injection + async flight spans
	pidSched   = 4 // one track per simthread: run/blocked states
)

// traceEvent is one Chrome trace_event object. Field order is fixed by
// the struct, and args maps marshal with sorted keys, so the export is
// byte-deterministic.
type traceEvent struct {
	Name string      `json:"name,omitempty"`
	Ph   string      `json:"ph"`
	Cat  string      `json:"cat,omitempty"`
	Ts   json.Number `json:"ts"`
	Dur  json.Number `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	ID   string      `json:"id,omitempty"`
	Args interface{} `json:"args,omitempty"`
}

// traceFile is the top-level Chrome trace_event JSON object.
type traceFile struct {
	TraceEvents     []traceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

// usec renders a nanosecond timestamp as fractional microseconds (the
// trace_event unit) with fixed precision, so output is deterministic.
func usec(ns int64) json.Number {
	return json.Number(strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64))
}

// meta builds a metadata (ph "M") event.
func meta(name string, pid, tid int, value string) traceEvent {
	return traceEvent{Name: name, Ph: "M", Ts: "0", Pid: pid, Tid: tid,
		Args: map[string]string{"name": value}}
}

// Perfetto exports the recording as Chrome trace_event JSON, loadable in
// ui.perfetto.dev: simthread tracks (MPI calls, progress polls, lock
// waits), lock tracks (holds labelled by holder thread), NIC tracks
// (injections plus async flight spans), scheduler-state tracks, and the
// dangling-request counter. Safe on a nil recorder (empty trace).
func (r *Recorder) Perfetto() []byte {
	tf := traceFile{
		DisplayTimeUnit: "ns",
		OtherData:       map[string]string{"schema": "mpicontend/trace/v1"},
	}
	if r != nil {
		tf.TraceEvents = r.events()
	}
	if tf.TraceEvents == nil {
		tf.TraceEvents = []traceEvent{}
	}
	out, err := json.Marshal(tf)
	if err != nil {
		// Only unmarshalable values can fail here; the structs are plain.
		panic(fmt.Sprintf("telemetry: perfetto marshal: %v", err))
	}
	return out
}

// events builds the full deterministic event list.
func (r *Recorder) events() []traceEvent {
	evs := make([]traceEvent, 0, 2*len(r.spans)+len(r.sched)+len(r.dangling.log)+16)

	// Track metadata: processes, then per-track names in id order.
	evs = append(evs,
		meta("process_name", pidThreads, 0, "simthreads"),
		meta("process_name", pidLocks, 0, "locks"),
		meta("process_name", pidFabric, 0, "fabric"),
		meta("process_name", pidSched, 0, "sched"),
	)
	for id := range r.threadNames {
		name := r.threadName(int32(id))
		evs = append(evs,
			meta("thread_name", pidThreads, id, name),
			meta("thread_name", pidSched, id, name),
		)
	}
	for id := range r.lockNames {
		evs = append(evs, meta("thread_name", pidLocks, id, r.lockNames[id]))
	}
	for id := 0; id < r.nicCount; id++ {
		evs = append(evs, meta("thread_name", pidFabric, id, "nic"+itoa(int64(id))))
	}

	flightID := 0
	for i := range r.spans {
		s := &r.spans[i]
		switch s.Kind {
		case SpanCall:
			evs = append(evs, traceEvent{Name: s.Name, Ph: "X", Cat: "mpi",
				Ts: usec(s.Start), Dur: usec(s.End - s.Start),
				Pid: pidThreads, Tid: int(s.Thread)})
		case SpanPoll:
			evs = append(evs, traceEvent{Name: "poll", Ph: "X", Cat: "progress",
				Ts: usec(s.Start), Dur: usec(s.End - s.Start),
				Pid: pidThreads, Tid: int(s.Thread),
				Args: map[string]int64{"handled": s.Arg}})
		case SpanWait:
			evs = append(evs, traceEvent{Name: "wait:" + r.lockName(s.Lock),
				Ph: "X", Cat: "lock",
				Ts: usec(s.Start), Dur: usec(s.End - s.Start),
				Pid: pidThreads, Tid: int(s.Thread),
				Args: map[string]string{"class": className(s.Class)}})
		case SpanHold:
			evs = append(evs, traceEvent{Name: r.threadName(s.Thread),
				Ph: "X", Cat: "lock",
				Ts: usec(s.Start), Dur: usec(s.End - s.Start),
				Pid: pidLocks, Tid: int(s.Lock),
				Args: map[string]string{
					"class":  className(s.Class),
					"useful": boolStr(s.Useful),
					"place":  "s" + itoa(int64(s.Sock)) + ".c" + itoa(int64(s.Core)),
				}})
		case SpanInject:
			evs = append(evs, traceEvent{Name: s.Name, Ph: "X", Cat: "nic",
				Ts: usec(s.Start), Dur: usec(s.End - s.Start),
				Pid: pidFabric, Tid: int(s.Thread),
				Args: map[string]int64{"bytes": s.Arg}})
		case SpanFlight:
			// Flights from one NIC overlap in time, so they export as
			// async begin/end pairs with per-span ids.
			id := "f" + itoa(int64(flightID))
			flightID++
			evs = append(evs,
				traceEvent{Name: s.Name, Ph: "b", Cat: "flight",
					Ts: usec(s.Start), Pid: pidFabric, Tid: int(s.Thread), ID: id,
					Args: map[string]int64{"bytes": s.Arg, "dst": int64(s.Lock)}},
				traceEvent{Name: s.Name, Ph: "e", Cat: "flight",
					Ts: usec(s.End), Pid: pidFabric, Tid: int(s.Thread), ID: id})
		}
	}

	// Scheduler-state spans: per-thread transition sequences close each
	// state at the next transition (or sim end).
	evs = append(evs, r.schedEvents()...)

	// Dangling-request counter.
	for _, g := range r.dangling.log {
		evs = append(evs, traceEvent{Name: "dangling", Ph: "C",
			Ts: usec(g.At), Pid: pidThreads, Tid: 0,
			Args: map[string]int64{"requests": g.Value}})
	}
	return evs
}

// schedEvents converts the global state-transition log into per-thread
// state spans on the sched track.
func (r *Recorder) schedEvents() []traceEvent {
	perThread := make([][]stateRec, len(r.threadNames))
	for _, rec := range r.sched {
		if int(rec.Thread) < len(perThread) {
			perThread[rec.Thread] = append(perThread[rec.Thread], rec)
		}
	}
	var evs []traceEvent
	for tid, recs := range perThread {
		for i, rec := range recs {
			if rec.State == stateDone {
				continue
			}
			end := r.maxTs
			if i+1 < len(recs) {
				end = recs[i+1].At
			}
			if end <= rec.At {
				continue
			}
			evs = append(evs, traceEvent{Name: stateName(rec.State), Ph: "X",
				Cat: "sched", Ts: usec(rec.At), Dur: usec(end - rec.At),
				Pid: pidSched, Tid: tid})
		}
	}
	return evs
}

// className names a lock scheduling class.
func className(c uint8) string {
	if c == ClassLow {
		return "low"
	}
	return "high"
}

// stateName names a merged scheduler state.
func stateName(s uint8) string {
	switch s {
	case stateRun:
		return "run"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	default:
		return "?"
	}
}

// boolStr renders a bool without fmt.
func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// ValidateTrace checks that data parses as a Chrome trace_event file with
// well-formed events: every event has a phase and non-negative pid/tid,
// complete events carry a duration, and async begin/end pairs balance.
func ValidateTrace(data []byte) error {
	var tf struct {
		TraceEvents []struct {
			Ph  string      `json:"ph"`
			Ts  json.Number `json:"ts"`
			Dur json.Number `json:"dur"`
			Pid int         `json:"pid"`
			Tid int         `json:"tid"`
			ID  string      `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("telemetry: trace: %w", err)
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("telemetry: trace: no events")
	}
	open := map[string]int{}
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X", "M", "C", "b", "e":
		default:
			return fmt.Errorf("telemetry: trace: event %d has unknown phase %q", i, ev.Ph)
		}
		if ev.Pid <= 0 || ev.Tid < 0 {
			return fmt.Errorf("telemetry: trace: event %d has bad track %d/%d", i, ev.Pid, ev.Tid)
		}
		if _, err := ev.Ts.Float64(); err != nil {
			return fmt.Errorf("telemetry: trace: event %d has bad ts: %w", i, err)
		}
		if ev.Ph == "X" {
			if d, err := ev.Dur.Float64(); err != nil || d < 0 {
				return fmt.Errorf("telemetry: trace: complete event %d has bad dur %q", i, ev.Dur)
			}
		}
		if ev.Ph == "b" {
			open[ev.ID]++
		}
		if ev.Ph == "e" {
			open[ev.ID]--
		}
	}
	var ids []string
	for id := range open {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if open[id] != 0 {
			return fmt.Errorf("telemetry: trace: unbalanced async id %q", id)
		}
	}
	return nil
}

// ValidateProfile checks that data parses as a Profile with the current
// schema and internally consistent histograms.
func ValidateProfile(data []byte) error {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("telemetry: profile: %w", err)
	}
	if p.Schema != ProfileSchema {
		return fmt.Errorf("telemetry: profile: schema %q, want %q", p.Schema, ProfileSchema)
	}
	check := func(name string, h HistStats) error {
		var n int64
		for _, b := range h.Buckets {
			n += b.Count
		}
		if n != h.Count {
			return fmt.Errorf("telemetry: profile: %s histogram buckets sum %d != count %d", name, n, h.Count)
		}
		return nil
	}
	for _, l := range p.Locks {
		if l.Name == "" {
			return fmt.Errorf("telemetry: profile: unnamed lock")
		}
		if l.HighAcq+l.LowAcq != l.Acquisitions {
			return fmt.Errorf("telemetry: profile: lock %s class split %d+%d != %d",
				l.Name, l.HighAcq, l.LowAcq, l.Acquisitions)
		}
		for _, h := range []struct {
			n string
			s HistStats
		}{{"wait", l.Wait}, {"hold", l.Hold}, {"handoff", l.Handoff}} {
			if err := check(l.Name+"/"+h.n, h.s); err != nil {
				return err
			}
		}
	}
	return check("unexpected_queue", p.UnexpectedQueue)
}

// MarshalProfile renders the profile as indented deterministic JSON.
func (p *Profile) Marshal() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}
