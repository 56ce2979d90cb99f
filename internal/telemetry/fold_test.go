package telemetry_test

import (
	"bytes"
	"testing"

	"mpicontend/internal/experiments"
	"mpicontend/internal/machine"
	"mpicontend/internal/sim"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
	"mpicontend/internal/workloads"
)

// foldProbes are one experiment id per probe shape.
var foldProbes = []string{"fig8a", "fig2a", "fig6b", "fig9a", "recovery", "vci", "progress", "partitioned", "chaos"}

// checkFold compares the recorder's folded profile with the replay of its
// logs (ReplayProfile, the reference in the package's replay_test.go),
// byte for byte, and each lock's folded §4.3 reading with its replay
// (CheckArbitration).
func checkFold(t *testing.T, rec *telemetry.Recorder) {
	t.Helper()
	if err := rec.CheckArbitration(); err != nil {
		t.Fatal(err)
	}
	fold, err := rec.Profile().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	replay, err := rec.ReplayProfile().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fold, replay) {
		t.Fatalf("folded profile differs from the replay:\nfold   %s\nreplay %s", fold, replay)
	}
}

// TestFoldMatchesReplayOnProbes: on every probe shape the profile folded
// as records arrive equals the one replayed from the logs.
func TestFoldMatchesReplayOnProbes(t *testing.T) {
	for _, id := range foldProbes {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			rec := telemetry.NewTrace()
			if _, err := experiments.Probe(id, experiments.Options{Quick: true}, rec); err != nil {
				t.Fatal(err)
			}
			checkFold(t, rec)
		})
	}
}

// TestFoldMatchesReplayPerLockKind: on a traced throughput run under
// every lock kind the fold equals the replay, and the traced section's
// §4.3 reading has contended grants to compare.
func TestFoldMatchesReplayPerLockKind(t *testing.T) {
	for k := simlock.KindMutex; k.Valid(); k++ {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			p := workloads.ThroughputParams{Lock: k, Threads: 4, MsgBytes: 64,
				Window: 16, Windows: 2, Seed: 42, Tel: telemetry.NewTrace()}
			if k == simlock.KindNone {
				p.Threads = 1 // THREAD_SINGLE model: one runtime thread
			}
			r, err := workloads.Throughput(p)
			if err != nil {
				t.Fatal(err)
			}
			checkFold(t, p.Tel)
			if r.Arbitration.Samples == 0 && k != simlock.KindNone {
				t.Fatal("no contended grants")
			}
		})
	}
}

// TestFoldMatchesReplayOnEdgeCases drives the recorder by hand through
// the shapes the probes do not: overwritten same-instant gauge samples,
// spans from unregistered thread ids, locks that never grant, and threads
// that never reach done.
func TestFoldMatchesReplayOnEdgeCases(t *testing.T) {
	at := machine.Place{}
	cases := map[string]func(r *telemetry.Recorder){
		"same-instant gauges": func(r *telemetry.Recorder) {
			r.RegisterThread(0, "t0")
			r.ThreadState(0, 0, sim.StateRunning)
			r.Dangling(10, 9) // overwritten: must not reach Max
			r.Dangling(10, 2)
			r.Dangling(40, 1)
			r.Dangling(40, 7)
			r.Dangling(40, 3)
			r.CQDepth(5, 4)
			r.CQDepth(5, 1)
			r.Call(0, "Wait", 0, 60)
			r.ThreadState(0, 80, sim.StateDone)
		},
		"unregistered threads": func(r *telemetry.Recorder) {
			r.RegisterThread(0, "t0")
			cs := r.RegisterLock("cs")
			r.ThreadState(0, 0, sim.StateRunning)
			r.ThreadState(5, 3, sim.StateRunning) // never registered
			r.Call(7, "Isend", 0, 30)             // never registered, no state
			r.Poll(9, 10, 20, 1)
			r.LockRequest(cs, 7, at, 0)
			r.LockGrant(cs, 7, telemetry.ClassHigh, at, 0, 4, 0)
			r.LockHold(cs, 7, telemetry.ClassHigh, false, 0, 1, 4, 9)
			r.Call(5, "Wait", 5, 25)
			r.RegisterThread(9, "late") // registered after its spans
			r.ThreadState(0, 50, sim.StateDone)
		},
		"holds without waits": func(r *telemetry.Recorder) {
			cs := r.RegisterLock("cs")
			r.LockHold(cs, 0, telemetry.ClassHigh, false, 0, 0, 0, 10)
			r.LockHold(cs, 1, telemetry.ClassHigh, false, 0, 1, 10, 20)
			r.LockRequest(cs, 0, at, 15)
			r.LockGrant(cs, 0, telemetry.ClassHigh, at, 15, 20, 0)
			r.LockHold(cs, 0, telemetry.ClassHigh, false, 0, 0, 20, 30)
		},
		"locks that never grant": func(r *telemetry.Recorder) {
			r.RegisterThread(0, "t0")
			idle := r.RegisterLock("idle")
			cs := r.RegisterLock("cs")
			r.RegisterLock("never")
			r.ThreadState(0, 0, sim.StateRunning)
			r.LockRequest(idle, 0, at, 1) // requested, never granted
			r.LockRequest(cs, 0, at, 2)
			r.LockGrant(cs, 0, telemetry.ClassLow, at, 2, 2, 1)
			r.LockHold(cs, 0, telemetry.ClassLow, true, 1, 0, 2, 12)
			r.ThreadState(0, 20, sim.StateDone)
		},
		"threads without done": func(r *telemetry.Recorder) {
			r.RegisterThread(0, "t0")
			r.RegisterThread(1, "t1")
			r.RegisterThread(2, "t2") // registered, never runs
			cs := r.RegisterLock("cs")
			r.ThreadState(0, 0, sim.StateRunning)
			r.ThreadState(1, 5, sim.StateRunning)
			r.ThreadState(1, 8, sim.StateParked)
			for i, th := range []int{0, 1, 0} {
				from := int64(10 * i)
				r.LockRequest(cs, th, machine.Place{Socket: th, Core: th}, from)
				r.LockGrant(cs, th, telemetry.ClassHigh, machine.Place{Socket: th, Core: th}, from, from+3, i)
				r.LockHold(cs, th, telemetry.ClassHigh, false, th, th, from+3, from+8)
			}
			r.Poll(1, 40, 45, 0)
			r.Flight(0, 1, "Eager", 64, 30, 70)
			r.Inject(0, "Eager", 64, 28, 30)
			r.Unexpected(12)
			r.ThreadState(0, 90, sim.StateDone) // thread 1 never finishes
		},
	}
	for name, drive := range cases {
		t.Run(name, func(t *testing.T) {
			rec := telemetry.NewTrace()
			drive(rec)
			checkFold(t, rec)
		})
	}
}

// TestFoldOnlyRecorder: a fold-only recorder derives the same profile as
// a logging one over the same run, and keeps no spans.
func TestFoldOnlyRecorder(t *testing.T) {
	fold, logging := telemetry.New(), telemetry.NewTrace()
	tracedRun(t, fold)
	tracedRun(t, logging)
	a, err := fold.Profile().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := logging.Profile().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("fold-only and logging recorders derive different profiles")
	}
	if n := len(fold.Spans()); n != 0 {
		t.Fatalf("fold-only recorder kept %d spans", n)
	}
	if len(logging.Spans()) == 0 || fold.Profile().Spans != int64(len(logging.Spans())) {
		t.Fatalf("span counts: fold-only %d, logging %d", fold.Profile().Spans, len(logging.Spans()))
	}
	fa, ok := fold.Arbitration("cs[r1]")
	la, _ := logging.Arbitration("cs[r1]")
	if !ok || fa != la || fa.Grants == 0 {
		t.Fatalf("arbitration readings differ or are empty: %+v vs %+v", fa, la)
	}
}

// TestTimelineKeepsLastHolds: Timeline reads a lock's hold spans in grant
// order and keeps the last n.
func TestTimelineKeepsLastHolds(t *testing.T) {
	r := telemetry.NewTrace()
	other := r.RegisterLock("other")
	cs := r.RegisterLock("cs")
	for i := 0; i < 20; i++ {
		at := int64(10 * i)
		r.LockHold(cs, i, telemetry.ClassHigh, false, 0, 0, at, at+5)
		r.LockHold(other, 99, telemetry.ClassHigh, false, 0, 0, at+5, at+10)
	}
	tl := r.Timeline("cs", 5)
	if len(tl) != 5 || tl[0].Thread != 15 || tl[4].Thread != 19 || tl[4].At != 190 {
		t.Fatalf("timeline = %+v, want threads 15..19", tl)
	}
	if n := len(r.Timeline("cs", 0)); n != 20 {
		t.Fatalf("unbounded timeline has %d grants, want 20", n)
	}
	if tl := r.Timeline("missing", 0); len(tl) != 0 {
		t.Fatalf("unknown lock timeline = %+v", tl)
	}
}
