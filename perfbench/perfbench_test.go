package main

//simcheck:allow-file nodeterm tests time real benchmark runs

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"mpicontend/mpisim"
)

// passDigest runs variant v of build at the given GOMAXPROCS.
func passDigest(t *testing.T, build func(uint64) (pass, error), v, procs int) string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	p, err := build(simSeed(v))
	if err != nil {
		t.Fatal(err)
	}
	rec, units, err := p.run(&env{})
	if err != nil {
		t.Fatal(err)
	}
	if units <= 0 {
		t.Fatalf("pass reported %d work units", units)
	}
	return rec.digest()
}

func pinned(t *testing.T, name string) (workload, []string) {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	pins, err := loadPins(w)
	if err != nil {
		t.Fatal(err)
	}
	return w, pins
}

// TestPinsMatch checks one variant of every workload against pins.json.
func TestPinsMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		const v = 3
		_, pins := pinned(t, w.name)
		if got := passDigest(t, w.build, v, w.gomaxprocs()); got != pins[v] {
			t.Errorf("%s variant %d: digest %s, pinned %s", w.name, v, got, pins[v])
		}
	}
}

func TestPickIsSeeded(t *testing.T) {
	w, _ := pinned(t, "remedies")
	a, b := w.pick(7), w.pick(7)
	seen := map[int]bool{}
	for i, v := range a {
		if v != b[i] {
			t.Fatalf("seed 7 picked %v, then %v", a, b)
		}
		if v < 0 || v >= variants || seen[v] {
			t.Fatalf("seed 7 picked %v: out of range or repeated", a)
		}
		seen[v] = true
	}
	if len(a) != w.perPass {
		t.Fatalf("picked %d variants, want %d", len(a), w.perPass)
	}
	differ := false
	for s := uint64(0); s < 8 && !differ; s++ {
		c := w.pick(s)
		for i := range c {
			differ = differ || c[i] != a[i]
		}
	}
	if !differ {
		t.Error("every seed picks the same variants")
	}
}

// TestDigestIndependentOfGOMAXPROCS is the simulator's determinism
// contract seen from the benchmark: the P count changes host timing only.
func TestDigestIndependentOfGOMAXPROCS(t *testing.T) {
	for _, name := range []string{"lockstorm", "remedies"} {
		w, pins := pinned(t, name)
		for _, procs := range []int{1, 2} {
			if got := passDigest(t, w.build, 5, procs); got != pins[5] {
				t.Errorf("%s at GOMAXPROCS %d: digest %s, pinned %s", name, procs, got, pins[5])
			}
		}
	}
}

// TestSweepDigestIndependentOfJobs runs the sweep serially and on
// several workers; both must match the pin.
func TestSweepDigestIndependentOfJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep twice")
	}
	_, pins := pinned(t, "sweep")
	jobs := runtime.NumCPU()
	if jobs < 2 {
		jobs = 2
	}
	for _, j := range []int{1, jobs} {
		if got := passDigest(t, buildSweep(j), 2, jobs); got != pins[2] {
			t.Errorf("sweep at Jobs %d: digest %s, pinned %s", j, got, pins[2])
		}
	}
}

// TestPerturbedOutputFails is the negative control: a pass whose output
// differs in one field counts as failed, not as a number.
func TestPerturbedOutputFails(t *testing.T) {
	w, pins := pinned(t, "lockstorm")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bump := func(r record) record {
		out := append(record(nil), r...)
		for i, kv := range out {
			if strings.HasPrefix(kv, "sim_ns=") {
				out[i] = kv + "1"
			}
		}
		return out
	}
	res, err := timedRun(w, 1, pins, runOpts{minPasses: 2, start: time.Now(), perturb: bump})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Attempted != 3 {
		t.Fatalf("perturbed run: correct=%v failed=%d attempted=%d; want every pass failed",
			res.Correct, res.Failed, res.Attempted)
	}
	res, err = timedRun(w, 1, pins, runOpts{minPasses: 1, start: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("unperturbed run: correct=%v failed=%d", res.Correct, res.Failed)
	}
	for _, m := range []string{"wall_s", "cpu_s", "allocs_per_unit", "bytes_per_unit", "peak_rss_mb", "setup_s"} {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("metric %s = %v, want > 0", m, res.Metrics[m].Value)
		}
	}
}

// TestProbesCountTheirWork runs every probe small and checks it observed
// exactly the operations it was asked for; a probe that does less fails.
func TestProbesCountTheirWork(t *testing.T) {
	for _, p := range probes {
		ops := p.ops / 100
		if ops < 64 {
			ops = 64
		}
		ops -= ops % 64 // whole sweep calls and whole grant rounds
		done, err := p.run(ops)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if done != int64(ops) {
			t.Errorf("%s: observed %d of %d operations", p.name, done, ops)
		}
	}
	short := probe{name: "short", ops: 10, procs: 1, run: func(ops int) (int64, error) {
		return int64(ops - 1), nil
	}}
	if _, err := short.measure(nil); err == nil {
		t.Error("a probe that did less work than asked reported a cost")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "b", Start: 15, End: 25},
		{ID: 3, Parent: 0, Name: "a", Start: 50, End: 60},
	}}
	got := tr.selfTimes()
	want := map[string]int64{"root": 60, "a": 30, "b": 10}
	for n, ns := range want {
		if got[n] != ns {
			t.Errorf("self time of %s = %d, want %d", n, got[n], ns)
		}
	}
}

func TestTelemetryCounts(t *testing.T) {
	tel := mpisim.NewTelemetry()
	if _, err := mpisim.Throughput(mpisim.ThroughputConfig{
		Lock: mpisim.Mutex, Threads: 4, MsgBytes: 64, Windows: 2, Seed: 1, Telemetry: tel,
	}); err != nil {
		t.Fatal(err)
	}
	c, err := telemetryCounts([]*mpisim.Telemetry{tel})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"mpi.calls_per_msg", "simlock.acq_per_msg", "fabric.flights_per_msg", "telemetry.spans_per_msg"} {
		if c[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, c[m])
		}
	}
	if _, err := telemetryCounts(nil); err == nil {
		t.Error("no recorders gave counts")
	}
}
