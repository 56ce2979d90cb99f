package main

//simcheck:allow-file nodeterm benchmark harness times host work; no wall-clock value reaches simulation state

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mpicontend/mpisim"
)

// env is what a pass runs with. The zero value is an untraced timed pass:
// no spans, no telemetry.
type env struct {
	tr *tracer
	// traced attaches a fresh mpisim.Telemetry to every telemetry-capable
	// facade call; the recorders collect in tels.
	traced bool
	tels   []*mpisim.Telemetry
}

func (e *env) telemetry() *mpisim.Telemetry {
	if !e.traced {
		return nil
	}
	t := mpisim.NewTelemetry()
	e.tels = append(e.tels, t)
	return t
}

// span is one host-time interval the benchmark recorded around a call
// into a layer, relative to the tracer's start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run writes them out. Calls nest
// on one goroutine, so an open-span stack gives each span its parent. A
// nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef closes the span begin opened.
type spanRef struct {
	t  *tracer
	id int
}

func (t *tracer) begin(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return spanRef{t: t, id: id}
}

func (s spanRef) end() {
	t := s.t
	if t == nil {
		return
	}
	t.spans[s.id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes fills each span's self time: its duration minus the time its
// children cover (children nest and never overlap), and returns the
// total self time per span name.
func (t *tracer) selfTimes() map[string]int64 {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
	byName := map[string]int64{}
	for _, s := range t.spans {
		byName[s.Name] += s.Self
	}
	return byName
}

// traceDir is where traced runs write their spans, inside the checkout's
// ignored build directory.
const traceDir = ".bench_build/trace"

// traceFile is what a traced run writes once at its end.
type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Spans     []span             `json:"spans"`
	SelfNs    []nameNs           `json:"self_ns_by_name"`
	Telemetry map[string]float64 `json:"telemetry"`
}

type nameNs struct {
	Name string `json:"name"`
	Ns   int64  `json:"ns"`
}

// write stores the spans, their self times and the telemetry counts as
// traceDir/<workload>-seed<seed>.json and returns the path.
func (t *tracer) write(workload string, seed uint64, counts map[string]float64) (string, error) {
	byName := t.selfTimes()
	f := traceFile{Workload: workload, Seed: seed, Spans: t.spans, Telemetry: counts}
	for n, ns := range byName {
		f.SelfNs = append(f.SelfNs, nameNs{n, ns})
	}
	sort.Slice(f.SelfNs, func(i, j int) bool { return f.SelfNs[i].Ns > f.SelfNs[j].Ns })
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, data, 0o644)
}
