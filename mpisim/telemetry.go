package mpisim

import (
	"mpicontend/internal/experiments"
	"mpicontend/internal/telemetry"
)

// Telemetry is the public handle on the deterministic observability
// plane: attach one to a benchmark config (or obtain one from
// TraceExperiment) and export the recording as a Perfetto trace and a
// contention profile. Recording keys entirely off the simulated clock, so
// same-seed runs export byte-identical artifacts. A nil *Telemetry means
// disabled and costs one pointer check per hook site.
type Telemetry struct {
	rec *telemetry.Recorder
}

// NewTelemetry returns an enabled telemetry plane.
func NewTelemetry() *Telemetry { return &Telemetry{rec: telemetry.New()} }

// recorder returns the underlying recorder (nil when t is nil).
func (t *Telemetry) recorder() *telemetry.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// PerfettoJSON exports the recording as Chrome trace_event JSON, loadable
// in ui.perfetto.dev.
func (t *Telemetry) PerfettoJSON() []byte { return t.recorder().Perfetto() }

// Profile derives the contention/progress/critical-path analysis.
func (t *Telemetry) Profile() *telemetry.Profile { return t.recorder().Profile() }

// ProfileJSON exports the derived profile as indented JSON.
func (t *Telemetry) ProfileJSON() ([]byte, error) { return t.recorder().Profile().Marshal() }

// ProfileText renders the derived profile as a deterministic text report.
func (t *Telemetry) ProfileText() string { return t.recorder().Profile().Text() }

// Spans returns the number of recorded spans.
func (t *Telemetry) Spans() int { return len(t.recorder().Spans()) }

// FigureData is the machine-readable form of a Figure (the flat JSON
// results schema shared by the telemetry exporter and mpistorm -json).
type FigureData = telemetry.FigureJSON

// TraceExperiment runs the traced representative point of an experiment
// with the telemetry plane attached and returns the recording plus a
// one-line description of the traced workload. o.Progress applies to the
// probes that honour it (the N2N-shaped ones). The run is deterministic:
// the same (id, o) pair yields byte-identical PerfettoJSON and ProfileJSON
// output.
func TraceExperiment(id string, o Options) (*Telemetry, string, error) {
	t := NewTelemetry()
	desc, err := experiments.Probe(id, o, t.rec)
	if err != nil {
		return nil, "", err
	}
	return t, desc, nil
}
