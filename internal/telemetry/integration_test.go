package telemetry_test

import (
	"bytes"
	"testing"

	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
	"mpicontend/internal/workloads"
)

// tracedRun executes a small contended throughput benchmark with a fresh
// recorder attached and returns the recorder plus the headline result.
func tracedRun(t *testing.T, rec *telemetry.Recorder) workloads.ThroughputResult {
	t.Helper()
	r, err := workloads.Throughput(workloads.ThroughputParams{
		Lock: simlock.KindMutex, Threads: 4, MsgBytes: 64,
		Window: 16, Windows: 2, Seed: 42, Tel: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTraceDeterminism is the tentpole acceptance check in miniature:
// same seed → byte-identical Perfetto trace and profile JSON.
func TestTraceDeterminism(t *testing.T) {
	r1, r2 := telemetry.New(), telemetry.New()
	tracedRun(t, r1)
	tracedRun(t, r2)

	t1, t2 := r1.Perfetto(), r2.Perfetto()
	if !bytes.Equal(t1, t2) {
		t.Fatalf("Perfetto traces differ across same-seed runs (%d vs %d bytes)",
			len(t1), len(t2))
	}
	p1, err := r1.Profile().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r2.Profile().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1, p2) {
		t.Fatal("profiles differ across same-seed runs")
	}
	if err := telemetry.ValidateTrace(t1); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if err := telemetry.ValidateProfile(p1); err != nil {
		t.Fatalf("profile invalid: %v", err)
	}
}

// TestTelemetryObservational verifies that attaching the recorder does
// not perturb the simulation: results match a bare run exactly.
func TestTelemetryObservational(t *testing.T) {
	bare := tracedRun(t, nil)
	traced := tracedRun(t, telemetry.New())
	if bare.Messages != traced.Messages || bare.SimNs != traced.SimNs ||
		bare.RateMsgsPerSec != traced.RateMsgsPerSec {
		t.Fatalf("telemetry perturbed the run:\nbare   %+v\ntraced %+v", bare, traced)
	}
}

// TestProfileContents sanity-checks the derived reports against what the
// workload must have done.
func TestProfileContents(t *testing.T) {
	rec := telemetry.New()
	res := tracedRun(t, rec)
	if res.Messages == 0 {
		t.Fatal("benchmark moved no messages")
	}
	p := rec.Profile()

	if len(p.Locks) == 0 {
		t.Fatal("no lock profiles recorded")
	}
	var acq, waits, holds int64
	for _, l := range p.Locks {
		acq += l.Acquisitions
		waits += l.Wait.Count
		holds += l.Hold.Count
		if l.Wait.Count != l.Acquisitions || l.Hold.Count != l.Acquisitions {
			t.Errorf("lock %s: wait/hold counts %d/%d != acq %d",
				l.Name, l.Wait.Count, l.Hold.Count, l.Acquisitions)
		}
		if l.HighAcq+l.LowAcq != l.Acquisitions {
			t.Errorf("lock %s: class split broken", l.Name)
		}
		var placeAcq int64
		for _, pc := range l.Places {
			placeAcq += pc.Acquisitions
		}
		if placeAcq != l.Acquisitions {
			t.Errorf("lock %s: per-place acq %d != %d", l.Name, placeAcq, l.Acquisitions)
		}
	}
	if acq == 0 || waits == 0 || holds == 0 {
		t.Fatalf("contended run recorded no lock activity: acq=%d", acq)
	}
	if p.Progress.Polls == 0 {
		t.Fatal("no progress polls recorded")
	}
	if p.Progress.UsefulPolls > p.Progress.Polls {
		t.Fatalf("useful polls %d > polls %d", p.Progress.UsefulPolls, p.Progress.Polls)
	}
	if p.CriticalPath.Messages == 0 || p.CriticalPath.WireNs == 0 {
		t.Fatalf("critical path empty: %+v", p.CriticalPath)
	}
	if p.Dangling.Samples == 0 {
		t.Fatal("no dangling-request samples")
	}
	if p.SimEndNs != res.SimNs {
		// The recorder's horizon is the last observed event, which must
		// not exceed the simulated run time.
		if p.SimEndNs > res.SimNs {
			t.Fatalf("telemetry horizon %d beyond sim end %d", p.SimEndNs, res.SimNs)
		}
	}
}
