// Command perfbench measures what the simulator costs on the host to
// produce a fixed, byte-identical result. It never measures simulated
// throughput: every pass hashes its simulated outputs and checks them
// against the digests pinned for its input variants in pins.json.
//
// -seed picks which of the workload's input variants (simulation seeds) a
// pass runs. An untraced run (-trace 0) builds their configs, runs one
// untimed warm-up pass, then times passes for -seconds and prints the
// end-to-end metrics: median wall and CPU seconds per pass, heap
// allocations and bytes per work unit, and the set-up time and peak RSS of
// a fresh process (the median over this process and two child processes
// that only set up). A traced run (-trace 1) prints the per-layer metrics instead: the
// host cost of single operations timed through each layer's public API,
// counts per simulated message from the telemetry plane, and the
// telemetry overhead; it writes its spans under .bench_build/trace.
//
// It sits in the shell around the deterministic core (docs/ARCHITECTURE.md):
// it reads wall clocks and starts goroutines and processes, none of which
// reaches simulation state. Run it through run.py, which builds it first:
//
//	python3 perfbench/run.py --workload lockstorm --seed 1 --seconds 30 --trace 0
package main

//simcheck:allow-file nodeterm benchmark harness times host work; no wall-clock value reaches simulation state

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

//go:embed pins.json
var pinsJSON []byte

// pinFile is the layout of pins.json: the digest of each workload's
// simulated outputs for every input variant.
type pinFile struct {
	Variants int                 `json:"variants"`
	Digests  map[string][]string `json:"digests"`
}

// loadPins returns the pinned digest of every variant of w.
func loadPins(w workload) ([]string, error) {
	var pf pinFile
	if err := json.Unmarshal(pinsJSON, &pf); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	ds := pf.Digests[w.name]
	if pf.Variants != variants || len(ds) != variants {
		return nil, fmt.Errorf("pins.json: %s has %d of %d variant digests", w.name, len(ds), variants)
	}
	return ds, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker counts passes and those whose simulated output missed a pin
// or whose simulation failed.
type checker struct {
	pins              []string // one per variant of the pass, in run order
	attempted, failed int
	// perturb, when set, alters each record before it is checked; the
	// negative-control tests use it.
	perturb func(record) record
}

// check counts one pass and reports whether every variant in it
// simulated its pinned output.
func (c *checker) check(what string, recs []record, err error) bool {
	ds := make([]string, len(recs))
	for i, rec := range recs {
		if c.perturb != nil {
			rec = c.perturb(rec)
		}
		ds[i] = rec.digest()
	}
	return c.checkDigests(what, ds, err)
}

func (c *checker) checkDigests(what string, ds []string, err error) bool {
	c.attempted++
	if err == nil && len(ds) != len(c.pins) {
		err = fmt.Errorf("%d variant outputs, want %d", len(ds), len(c.pins))
	}
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
		return false
	}
	for i, d := range ds {
		if d != c.pins[i] {
			c.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: output digest %s, pinned %s\n", what, d, c.pins[i])
			return false
		}
	}
	return true
}

func (c *checker) result(metrics map[string]metric) result {
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics}
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload to run: lockstorm, remedies, apps or sweep")
	seed := flag.Uint64("seed", 1, "workload seed; selects the input variants")
	seconds := flag.Float64("seconds", 10, "how long to time passes")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	setupChild := flag.Bool("setup-child", false, "set up once, print the set-up time and exit")
	pinMode := flag.Bool("pins", false, "print the output digest of every workload and variant as pins.json")
	flag.Parse()

	if *pinMode {
		if err := printPins(); err != nil {
			fatal(err)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	pins, err := loadPins(w)
	if err != nil {
		fatal(err)
	}
	runtime.GOMAXPROCS(w.gomaxprocs())
	var res interface{}
	switch {
	case *setupChild:
		res, err = setUpOnly(w, *seed, pins, start)
	case *trace == 1:
		res, err = tracedRun(w, *seed, *seconds, pins)
	case *trace == 0:
		res, err = timedRun(w, *seed, pins, runOpts{seconds: *seconds, minPasses: 3, children: 2, start: start})
	default:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// childReport is what a -setup-child process prints.
type childReport struct {
	Setup   float64  `json:"setup_s"`
	RSSMB   float64  `json:"peak_rss_mb"`
	Digests []string `json:"digests"`
}

// setUp builds the job's configs and runs the untimed warm-up pass.
func setUp(w workload, seed uint64, pins []string, tr *tracer) (job, []record, error) {
	defer tr.begin("setup").end()
	j, err := newJob(w, seed, pins)
	if err != nil {
		return job{}, nil, err
	}
	recs, _, err := j.run(&env{tr: tr})
	return j, recs, err
}

// setUpOnly is the -setup-child mode: set up, and report the time since
// the process started, its peak RSS and the warm-up pass's digests.
func setUpOnly(w workload, seed uint64, pins []string, start time.Time) (childReport, error) {
	_, recs, err := setUp(w, seed, pins, nil)
	if err != nil {
		return childReport{}, err
	}
	rep := childReport{Setup: time.Since(start).Seconds(), RSSMB: peakRSSMB()}
	for _, rec := range recs {
		rep.Digests = append(rep.Digests, rec.digest())
	}
	return rep, nil
}

// childSetUp runs a fresh process that only sets up, and returns its
// set-up time and warm-up digests.
func childSetUp(w workload, seed uint64) (childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return childReport{}, err
	}
	cmd := exec.Command(exe, "-setup-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childReport{}, fmt.Errorf("set-up child: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return childReport{}, fmt.Errorf("set-up child output %q: %w", out, err)
	}
	return rep, nil
}

type runOpts struct {
	seconds   float64
	minPasses int
	// children is how many extra set-up samples to take from fresh
	// child processes.
	children int
	// start is when this process began; set-up time counts from it.
	start   time.Time
	perturb func(record) record
}

// timedRun is the untraced run: set up, then time passes for the given
// seconds (at least minPasses) and report the medians.
func timedRun(w workload, seed uint64, pins []string, o runOpts) (result, error) {
	j, recs, err := setUp(w, seed, pins, nil)
	if j.passes == nil {
		return result{}, err
	}
	c := &checker{pins: j.pins, perturb: o.perturb}
	c.check("warm-up pass", recs, err)
	// Set-up time and peak RSS are what a fresh process pays to reach its
	// first timed pass; the memory a run holds later depends on how many
	// passes fit in it.
	setups := []float64{time.Since(o.start).Seconds()}
	rss := []float64{peakRSSMB()}
	for i := 0; i < o.children; i++ {
		rep, err := childSetUp(w, seed)
		if err != nil {
			return result{}, err
		}
		c.checkDigests("set-up child", rep.Digests, nil)
		setups = append(setups, rep.Setup)
		rss = append(rss, rep.RSSMB)
	}

	steal := startSteal()
	var wall, cpu, allocs, bytes []float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; n < o.minPasses || time.Now().Before(deadline); n++ {
		// Only passes that reproduce the pinned output are timed: a wrong
		// result is a failure, never a fast or slow pass.
		s, recs, err := timePass(j)
		if !c.check("timed pass", recs, err) || s.units <= 0 {
			continue
		}
		wall = append(wall, s.wall)
		cpu = append(cpu, s.cpu)
		allocs = append(allocs, float64(s.allocs)/float64(s.units))
		bytes = append(bytes, float64(s.bytes)/float64(s.units))
	}
	if len(wall) == 0 {
		return c.result(map[string]metric{}), nil
	}
	diag, _ := json.Marshal(map[string]interface{}{
		"workload": w.name, "seed": seed, "variants": j.variants,
		"gomaxprocs": runtime.GOMAXPROCS(0), "passes": len(wall),
		"steal_share": steal.share(), "unit": w.unit,
		"goroutines_after": runtime.NumGoroutine(),
	})
	fmt.Fprintf(os.Stderr, "diag %s\n", diag)
	return c.result(map[string]metric{
		"wall_s":          {median(wall), "s"},
		"cpu_s":           {median(cpu), "s"},
		"allocs_per_unit": {median(allocs), "allocs/unit"},
		"bytes_per_unit":  {median(bytes), "B/unit"},
		"peak_rss_mb":     {median(rss), "MiB"},
		"setup_s":         {median(setups), "s"},
	}), nil
}

// printPins runs one pass of every workload on every variant and prints
// the digests in the pins.json layout.
func printPins() error {
	pf := pinFile{Variants: variants, Digests: map[string][]string{}}
	for _, w := range workloads {
		prev := runtime.GOMAXPROCS(w.gomaxprocs())
		for v := 0; v < variants; v++ {
			p, err := w.build(simSeed(v))
			if err != nil {
				return err
			}
			rec, _, err := p.run(&env{})
			if err != nil {
				return fmt.Errorf("%s variant %d: %w", w.name, v, err)
			}
			pf.Digests[w.name] = append(pf.Digests[w.name], rec.digest())
		}
		runtime.GOMAXPROCS(prev)
	}
	out, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
