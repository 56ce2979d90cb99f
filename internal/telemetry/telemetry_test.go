package telemetry

import (
	"strings"
	"testing"

	"mpicontend/internal/machine"
	"mpicontend/internal/sim"
)

func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, d := range []int64{0, 1, 2, 3, 4, 100, 1 << 20} {
		h.Add(d)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Max() != 1<<20 {
		t.Fatalf("max = %d", h.Max())
	}
	// 0 → bucket 0 (<= 0); 1 → bucket 1 (<= 1); 2,3 → bucket 2 (<= 3).
	if got := bucketOf(0); got != 0 {
		t.Errorf("bucketOf(0) = %d", got)
	}
	if got := bucketOf(1); got != 1 {
		t.Errorf("bucketOf(1) = %d", got)
	}
	if got := bucketOf(3); got != 2 {
		t.Errorf("bucketOf(3) = %d", got)
	}
	if got := bucketUpper(2); got != 3 {
		t.Errorf("bucketUpper(2) = %d", got)
	}
	// Negative durations clamp to the zero bucket rather than panicking.
	h.Add(-5)
	if h.Count() != 8 {
		t.Fatalf("negative add not counted")
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	for i := int64(1); i <= 100; i++ {
		h.Add(i)
	}
	// Quantile returns a bucket upper bound ≥ the true quantile and ≤ max.
	p50 := h.Quantile(0.5)
	if p50 < 50 || p50 > h.Max() {
		t.Errorf("p50 = %d out of [50, %d]", p50, h.Max())
	}
	if q := h.Quantile(1.0); q != h.Max() {
		t.Errorf("p100 = %d, want max %d", q, h.Max())
	}
	var empty Hist
	if q := empty.Quantile(0.9); q != 0 {
		t.Errorf("empty quantile = %d", q)
	}

	st := h.Stats()
	if st.Count != 100 {
		t.Fatalf("stats count = %v", st.Count)
	}
	var n int64
	for _, b := range st.Buckets {
		n += b.Count
	}
	if n != 100 {
		t.Fatalf("bucket counts sum to %d, want 100", n)
	}
	for i := 1; i < len(st.Buckets); i++ {
		if st.Buckets[i].LeNs <= st.Buckets[i-1].LeNs {
			t.Fatalf("buckets not ascending: %+v", st.Buckets)
		}
	}
}

// TestNilRecorderSafe locks in the zero-overhead-when-disabled contract:
// every recording method must be a no-op on a nil receiver.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.RegisterThread(0, "t0")
	_ = r.RegisterLock("l0")
	r.Call(0, "Isend", 0, 10)
	r.Poll(0, 0, 10, 1)
	r.LockGrant(0, 0, ClassHigh, machine.Place{}, 0, 5, 0)
	r.LockHold(0, 0, ClassHigh, true, 0, 0, 5, 9)
	r.Inject(0, "Eager", 64, 0, 3)
	r.Flight(0, 1, "Eager", 64, 3, 9)
	r.Dangling(5, 1)
	r.Unexpected(100)
	r.ThreadState(0, 0, sim.StateRunning)
	if r.Spans() != nil {
		t.Fatal("nil recorder returned spans")
	}
	if r.SimEnd() != 0 {
		t.Fatal("nil recorder has sim end")
	}
	// A nil recorder still exports a well-formed (empty) trace.
	if b := r.Perfetto(); !strings.Contains(string(b), `"traceEvents":[]`) {
		t.Fatalf("nil recorder Perfetto = %q", b)
	}
	// Profile on a nil recorder is an empty-but-valid document.
	if p := r.Profile(); p.Schema != ProfileSchema || p.Spans != 0 || len(p.Locks) != 0 {
		t.Fatalf("nil recorder profile = %+v", p)
	}
}

func TestRecorderSpansAndProfile(t *testing.T) {
	r := NewTrace()
	r.RegisterThread(0, "r0.worker0")
	r.RegisterThread(1, "r0.worker1")
	cs := r.RegisterLock("cs[r0]")

	r.ThreadState(0, 0, sim.StateRunning)
	r.ThreadState(1, 0, sim.StateRunning)
	// Thread 0 holds uncontended; thread 1 waits, then gets a handoff.
	r.LockGrant(cs, 0, ClassHigh, machine.Place{}, 0, 0, 0)
	r.LockHold(cs, 0, ClassHigh, false, 0, 0, 0, 100)
	r.LockGrant(cs, 1, ClassLow, machine.Place{}, 50, 100, 0)
	r.LockHold(cs, 1, ClassLow, true, 0, 1, 100, 180)
	r.Call(0, "Isend", 0, 120)
	r.Poll(1, 100, 180, 2)
	r.Dangling(60, 1)
	r.Dangling(120, 0)
	r.Unexpected(40)
	r.ThreadState(0, 200, sim.StateDone)
	r.ThreadState(1, 200, sim.StateDone)

	if n := len(r.Spans()); n != 6 {
		t.Fatalf("span count = %d, want 6", n)
	}
	p := r.Profile()
	if len(p.Locks) != 1 {
		t.Fatalf("lock profiles = %d", len(p.Locks))
	}
	l := p.Locks[0]
	if l.Name != "cs[r0]" || l.Acquisitions != 2 {
		t.Fatalf("lock profile = %+v", l)
	}
	if l.HighAcq != 1 || l.LowAcq != 1 {
		t.Fatalf("class split = %d/%d", l.HighAcq, l.LowAcq)
	}
	if l.Uncontended != 1 {
		t.Fatalf("uncontended = %d, want 1 (thread 0 waited 0ns)", l.Uncontended)
	}
	if l.UsefulAcq != 1 {
		t.Fatalf("useful = %d", l.UsefulAcq)
	}
	// Thread 1 waited from 50, lock released at 100, granted at 100:
	// one handoff of 0ns.
	if l.Handoff.Count != 1 {
		t.Fatalf("handoffs = %v", l.Handoff.Count)
	}
	if p.Progress.Polls != 1 || p.Progress.EventsHandled != 2 || p.Progress.UsefulPolls != 1 {
		t.Fatalf("progress = %+v", p.Progress)
	}
	if p.UnexpectedQueue.Count != 1 {
		t.Fatalf("unexpected queue = %+v", p.UnexpectedQueue)
	}
	if p.Dangling.Max != 1 || p.Dangling.Samples != 2 {
		t.Fatalf("dangling = %+v", p.Dangling)
	}
	if p.SimEndNs != 200 {
		t.Fatalf("sim end = %d", p.SimEndNs)
	}
	txt := p.Text()
	for _, want := range []string{"cs[r0]", "progress", "critical path"} {
		if !strings.Contains(txt, want) {
			t.Errorf("profile text missing %q:\n%s", want, txt)
		}
	}
}

func TestThreadStateDedup(t *testing.T) {
	r := NewTrace()
	r.RegisterThread(0, "t")
	r.ThreadState(0, 0, sim.StateRunning)
	r.ThreadState(0, 10, sim.StateSleeping) // merges into running
	r.ThreadState(0, 20, sim.StateParked)
	r.ThreadState(0, 30, sim.StateRunning)
	r.ThreadState(0, 40, sim.StateDone)
	if n := len(r.sched); n != 4 {
		t.Fatalf("sched recs = %d, want 4 (sleeping merged into running)", n)
	}
}

func TestDanglingCollapsesSameInstant(t *testing.T) {
	r := NewTrace()
	r.Dangling(10, 3)
	r.Dangling(10, 2)
	r.Dangling(20, 1)
	if log := r.dangling.log; len(log) != 2 || log[0].Value != 2 {
		t.Fatalf("same-instant sample not collapsed to last: %+v", log)
	}
	// The overwritten 3 never reaches the profile.
	if g := r.Profile().Dangling; g.Samples != 2 || g.Max != 2 {
		t.Fatalf("dangling stats = %+v, want 2 samples, max 2", g)
	}
}

func TestPerfettoExportAndValidate(t *testing.T) {
	r := NewTrace()
	r.RegisterThread(0, "w0")
	cs := r.RegisterLock("cs")
	r.ThreadState(0, 0, sim.StateRunning)
	r.LockGrant(cs, 0, ClassHigh, machine.Place{}, 0, 5, 0)
	r.LockHold(cs, 0, ClassHigh, true, 0, 0, 5, 20)
	r.Call(0, "Isend", 0, 25)
	r.Inject(0, "Eager", 64, 5, 8)
	r.Flight(0, 1, "Eager", 64, 8, 30)
	r.Dangling(12, 1)
	r.ThreadState(0, 40, sim.StateDone)

	data := r.Perfetto()
	if err := ValidateTrace(data); err != nil {
		t.Fatalf("ValidateTrace: %v\n%s", err, data)
	}
	for _, want := range []string{
		`"schema":"mpicontend/trace/v1"`, `"name":"Isend"`, `"ph":"b"`,
		`"ph":"e"`, `"name":"dangling"`,
	} {
		if !strings.Contains(strings.ReplaceAll(string(data), " ", ""), want) {
			t.Errorf("trace missing %s", want)
		}
	}

	prof, err := r.Profile().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateProfile(prof); err != nil {
		t.Fatalf("ValidateProfile: %v\n%s", err, prof)
	}
}

func TestValidateTraceRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"not json":       `{`,
		"bad phase":      `{"traceEvents":[{"ph":"Z","pid":1,"tid":0,"ts":"0"}]}`,
		"unbalanced b/e": `{"traceEvents":[{"ph":"b","pid":3,"tid":0,"ts":"0","id":"f0","name":"x","cat":"c"}]}`,
		"negative dur":   `{"traceEvents":[{"ph":"X","pid":1,"tid":0,"ts":"0","dur":"-1","name":"x","cat":"c"}]}`,
	}
	for name, in := range cases {
		if err := ValidateTrace([]byte(in)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
	if err := ValidateProfile([]byte(`{"schema":"wrong"}`)); err == nil {
		t.Error("wrong profile schema accepted")
	}
}
