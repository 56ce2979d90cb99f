package mpisim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mpicontend/internal/report"
	"mpicontend/internal/telemetry"
)

func TestTelemetryAttachedToFacade(t *testing.T) {
	tel := NewTelemetry()
	r, err := Throughput(ThroughputConfig{Lock: Mutex, Threads: 4,
		MsgBytes: 64, Windows: 2, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if r.Messages == 0 {
		t.Fatal("no messages")
	}
	if tel.Spans() == 0 {
		t.Fatal("telemetry attached but no spans recorded")
	}
	if err := telemetry.ValidateTrace(tel.PerfettoJSON()); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	prof, err := tel.ProfileJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateProfile(prof); err != nil {
		t.Fatalf("profile invalid: %v", err)
	}
	if !strings.Contains(tel.ProfileText(), "lock") {
		t.Fatal("profile text missing lock section")
	}
}

func TestTraceExperiment(t *testing.T) {
	t1, desc, err := TraceExperiment("fig8a", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if desc == "" || t1.Spans() == 0 {
		t.Fatalf("degenerate trace: desc=%q spans=%d", desc, t1.Spans())
	}
	t2, _, err := TraceExperiment("fig8a", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.PerfettoJSON(), t2.PerfettoJSON()) {
		t.Fatal("same-seed traces differ")
	}

	if _, _, err := TraceExperiment("fig99", Options{Quick: true}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentFigureData(t *testing.T) {
	figs, err := RunExperiment("fig2b", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) == 0 || figs[0].Data == nil {
		t.Fatal("figure data missing")
	}
	f := figs[0]
	data, err := f.Data.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := report.ValidateFigure(data); err != nil {
		t.Fatalf("figure JSON invalid: %v", err)
	}
	// The rendered text is exactly the format of the exported JSON.
	var back report.Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if f.Text != back.Format() {
		t.Fatal("figure text diverged from its JSON form")
	}
}
