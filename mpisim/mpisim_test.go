package mpisim

import (
	"strings"
	"testing"
)

func TestLockNames(t *testing.T) {
	want := map[Lock]string{
		Mutex: "Mutex", Ticket: "Ticket", Priority: "Priority",
		Single: "Single", TAS: "TAS", MCS: "MCS",
		PrioMutex: "PrioMutex", SocketPriority: "SocketPriority",
	}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(l), l.String(), s)
		}
	}
	for _, m := range []ProgressMode{PollingProgress, StrongProgress, ContinuationProgress} {
		if got, err := ParseProgressMode(m.String()); err != nil || got != m {
			t.Errorf("ParseProgressMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if m, err := ParseProgressMode(""); err != nil || m != PollingProgress {
		t.Errorf(`ParseProgressMode("") = %v, %v; want polling`, m, err)
	}
	if _, err := ParseProgressMode("eager"); err == nil {
		t.Error("ParseProgressMode accepted an unknown mode")
	}
}

func TestThroughputFacade(t *testing.T) {
	r, err := Throughput(ThroughputConfig{Lock: Ticket, Threads: 4,
		MsgBytes: 64, Windows: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.RateMsgsPerSec <= 0 || r.Messages == 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if r.BiasCore == 0 && r.BiasSocket == 0 {
		t.Error("trace requested but bias factors empty")
	}
}

func TestLatencyFacade(t *testing.T) {
	r, err := Latency(LatencyConfig{Lock: Single, Threads: 1, MsgBytes: 8, Iters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgOneWayUs <= 0 {
		t.Fatalf("latency %v", r.AvgOneWayUs)
	}
}

func TestN2NFacade(t *testing.T) {
	r, err := N2N(N2NConfig{Lock: Priority, Procs: 3, Threads: 2, MsgBytes: 16, Windows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.RateMsgsPerSec <= 0 {
		t.Fatalf("rate %v", r.RateMsgsPerSec)
	}
}

func TestRMAFacade(t *testing.T) {
	for _, op := range []RMAOp{Put, Get, Accumulate} {
		r, err := RMA(RMAConfig{Lock: Ticket, Op: op, ElemBytes: 64, Ops: 3})
		if err != nil {
			t.Fatal(err)
		}
		if r.RateElemPerSec <= 0 {
			t.Fatalf("op %d rate %v", op, r.RateElemPerSec)
		}
	}
}

func TestBFSFacade(t *testing.T) {
	r, err := BFS(BFSConfig{Lock: Ticket, Procs: 2, Threads: 2, Scale: 9})
	if err != nil {
		t.Fatal(err)
	}
	if r.MTEPS <= 0 || r.VisitedVertices == 0 {
		t.Fatalf("degenerate: %+v", r)
	}
}

func TestStencilFacade(t *testing.T) {
	r, err := Stencil(StencilConfig{Lock: Ticket, Procs: 2, Threads: 2,
		NX: 8, NY: 8, NZ: 8, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.GFlops <= 0 || r.Checksum == 0 {
		t.Fatalf("degenerate: %+v", r)
	}
}

func TestAssemblyFacade(t *testing.T) {
	r, err := Assembly(AssemblyConfig{Lock: Ticket, Procs: 2, GenomeLen: 1500, Reads: 300})
	if err != nil {
		t.Fatal(err)
	}
	if r.Contigs == 0 || r.ContigBases == 0 {
		t.Fatalf("degenerate: %+v", r)
	}
}

func TestExperimentsListed(t *testing.T) {
	ids := Experiments()
	if len(ids) < 20 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
}

func TestRunExperimentTable1(t *testing.T) {
	figs, err := RunExperiment("table1", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || !strings.Contains(figs[0].Text, "Nehalem") {
		t.Fatalf("unexpected table1 output: %+v", figs)
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("fig99", Options{Quick: true}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentFig2b(t *testing.T) {
	figs, err := RunExperiment("fig2b", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) == 0 || len(figs[0].Text) == 0 {
		t.Fatal("empty figure")
	}
	if !strings.Contains(figs[0].Text, "compact") {
		t.Fatalf("fig2b missing series:\n%s", figs[0].Text)
	}
}

func TestGranularityFacade(t *testing.T) {
	for _, g := range []Granularity{Global, BriefGlobal, FineGrain, LockFree} {
		r, err := Throughput(ThroughputConfig{Lock: Ticket, Granularity: g,
			Threads: 4, MsgBytes: 64, Windows: 2})
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if r.RateMsgsPerSec <= 0 {
			t.Fatalf("%v: degenerate rate", g)
		}
	}
	if Global.String() != "Global" || LockFree.String() != "LockFree" {
		t.Fatal("granularity names changed")
	}
}

func TestSelectiveWakeupFacade(t *testing.T) {
	busy, err := RMA(RMAConfig{Lock: Mutex, Op: Put, ElemBytes: 64, Ops: 4})
	if err != nil {
		t.Fatal(err)
	}
	evt, err := RMA(RMAConfig{Lock: Mutex, Op: Put, ElemBytes: 64, Ops: 4,
		SelectiveWakeup: true})
	if err != nil {
		t.Fatal(err)
	}
	if evt.RateElemPerSec <= busy.RateElemPerSec {
		t.Errorf("selective wakeup should raise the mutex RMA rate: %.0f vs %.0f",
			evt.RateElemPerSec, busy.RateElemPerSec)
	}
}

func TestCohortFacade(t *testing.T) {
	r, err := Throughput(ThroughputConfig{Lock: Cohort, Threads: 8,
		MsgBytes: 64, Windows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.RateMsgsPerSec <= 0 {
		t.Fatal("degenerate cohort rate")
	}
}

func TestPatternFacade(t *testing.T) {
	for _, pk := range []PatternKind{ConcurrentPairs, FanIn, FanOut, ComputeOverlap} {
		r, err := Pattern(PatternConfig{Lock: Ticket, Pattern: pk, Threads: 2, Msgs: 8})
		if err != nil {
			t.Fatal(err)
		}
		if r.RateMsgsPerSec <= 0 {
			t.Fatalf("pattern %d degenerate", pk)
		}
	}
}
