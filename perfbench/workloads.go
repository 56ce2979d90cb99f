package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"

	"mpicontend/internal/experiments"
	"mpicontend/mpisim"
)

// variants is how many input variants each workload has. A variant is one
// simulation seed, and the digest of its simulated outputs is pinned in
// pins.json, so every pass is checked whatever --seed selects.
const variants = 16

// simSeed is the simulation seed of variant v.
func simSeed(v int) uint64 { return 0x5eed + uint64(v) }

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// unit names one work unit of a pass; allocs_per_unit and
	// bytes_per_unit divide by the units a pass reports.
	unit string
	// single marks workloads that run one simulation point at a time and
	// therefore run at GOMAXPROCS=1; the rest run at one P per CPU.
	single bool
	// perPass is how many variants one pass simulates, one after another.
	// Host work differs from variant to variant; averaging over several
	// keeps a pass's work nearly the same whatever the seed.
	perPass int
	// build generates one variant's configs from its simulation seed.
	build func(sim uint64) (pass, error)
}

// pass runs one variant. env carries the optional tracer and telemetry
// attachment; untimed traced runs set them, timed passes never do.
type pass struct {
	// run performs every facade call and returns the record of simulated
	// outputs and the number of work units done.
	run func(env *env) (record, int64, error)
	// tel runs the telemetry-capable facade calls (the subject of the
	// telemetry counts and of telemetry.overhead_x).
	tel func(env *env) error
}

// gomaxprocs is the P count the workload runs at.
func (w workload) gomaxprocs() int {
	if w.single {
		return 1
	}
	return runtime.NumCPU()
}

// pick returns the variants the seed selects: the first perPass entries of
// a permutation of all variants shuffled by the seed.
func (w workload) pick(seed uint64) []int {
	perm := make([]int, variants)
	for i := range perm {
		perm[i] = i
	}
	x := seed
	for i := variants - 1; i > 0; i-- {
		x = splitmix(x)
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:w.perPass]
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// job is what one seed makes of a workload: the variants it runs, their
// configs, and the digests their outputs must reproduce.
type job struct {
	variants []int
	passes   []pass
	pins     []string
}

func newJob(w workload, seed uint64, pins []string) (job, error) {
	j := job{variants: w.pick(seed)}
	for _, v := range j.variants {
		p, err := w.build(simSeed(v))
		if err != nil {
			return job{}, fmt.Errorf("%s variant %d: build configs: %w", w.name, v, err)
		}
		j.passes = append(j.passes, p)
		j.pins = append(j.pins, pins[v])
	}
	return j, nil
}

// run is one timed pass of the workload: every selected variant in turn.
func (j job) run(e *env) ([]record, int64, error) {
	var recs []record
	var units int64
	for i, p := range j.passes {
		rec, n, err := p.run(e)
		if err != nil {
			return nil, 0, fmt.Errorf("variant %d: %w", j.variants[i], err)
		}
		recs = append(recs, rec)
		units += n
	}
	return recs, units, nil
}

// record is the canonical text of a pass's simulated outputs, one
// "key=value" line per field, in emission order.
type record []string

func (r *record) add(key string, v interface{}) {
	var s string
	switch x := v.(type) {
	case float64:
		s = strconv.FormatFloat(x, 'g', -1, 64)
	default:
		s = fmt.Sprint(x)
	}
	*r = append(*r, key+"="+s)
}

// digest hashes the record; equal simulated outputs give equal digests.
func (r record) digest() string {
	h := sha256.Sum256([]byte(strings.Join(r, "\n")))
	return hex.EncodeToString(h[:8])
}

// sweepIDs is the sweep workload's experiment subset: short microbenchmark
// points plus the vci experiment as the long pole.
var sweepIDs = []string{"fig2a", "fig5c", "fig8a", "chaos", "vci"}

// workloads lists every workload by name; BENCHMARK.json runs all but
// sweep (see buildSweep).
var workloads = []workload{
	{name: "lockstorm", unit: "msg", single: true, perPass: 1, build: buildLockstorm},
	{name: "remedies", unit: "msg", single: true, perPass: 8, build: buildRemedies},
	{name: "apps", unit: "pass", single: true, perPass: 2, build: buildApps},
	{name: "sweep", unit: "point", perPass: 1, build: buildSweep(runtime.NumCPU())},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// buildLockstorm is the Fig. 2a/8a worst case: eight threads behind the
// futex mutex, 64-byte messages, one VCI, polling progress.
func buildLockstorm(sim uint64) (pass, error) {
	cfg := mpisim.ThroughputConfig{
		Lock: mpisim.Mutex, Threads: 8, MsgBytes: 64,
		Windows: 64, Seed: sim,
	}
	throughput := func(e *env) (mpisim.ThroughputResult, error) {
		c := cfg
		c.Telemetry = e.telemetry()
		defer e.tr.begin("mpisim.Throughput").end()
		return mpisim.Throughput(c)
	}
	return pass{
		run: func(e *env) (record, int64, error) {
			res, err := throughput(e)
			if err != nil {
				return nil, 0, err
			}
			var r record
			r.add("messages", res.Messages)
			r.add("sim_ns", res.SimNs)
			r.add("rate", res.RateMsgsPerSec)
			return r, res.Messages, nil
		},
		tel: func(e *env) error {
			_, err := throughput(e)
			return err
		},
	}, nil
}

// n2nMessages recovers the message count of an N2N run from its rate and
// simulated duration (the facade reports rate = messages / duration).
func n2nMessages(res mpisim.N2NResult) int64 {
	return int64(math.Round(res.RateMsgsPerSec * float64(res.SimNs) / 1e9))
}

// buildRemedies is N2N with every remedy on: 4 procs x 8 threads with
// per-thread tags on 16 explicitly placed VCIs and continuation progress,
// run once with eager sends and once with partitioned sends.
func buildRemedies(sim uint64) (pass, error) {
	base := mpisim.N2NConfig{
		Lock: mpisim.Mutex, Procs: 4, Threads: 8, MsgBytes: 2048,
		Windows: 2, Seed: sim, PerThreadTags: true,
		VCIs: 16, VCIPolicy: mpisim.ExplicitVCI,
		Progress: mpisim.ContinuationProgress,
	}
	halves := []struct {
		name string
		cfg  mpisim.N2NConfig
	}{
		{"eager", base},
		{"partitioned", func() mpisim.N2NConfig { c := base; c.Partitioned = true; return c }()},
	}
	n2n := func(e *env, c mpisim.N2NConfig) (mpisim.N2NResult, error) {
		c.Telemetry = e.telemetry()
		defer e.tr.begin("mpisim.N2N").end()
		return mpisim.N2N(c)
	}
	return pass{
		run: func(e *env) (record, int64, error) {
			var r record
			var msgs int64
			for _, h := range halves {
				res, err := n2n(e, h.cfg)
				if err != nil {
					return nil, 0, fmt.Errorf("%s: %w", h.name, err)
				}
				m := n2nMessages(res)
				msgs += m
				r.add(h.name+".messages", m)
				r.add(h.name+".sim_ns", res.SimNs)
				r.add(h.name+".unexpected", res.UnexpectedHits)
				r.add(h.name+".part", fmt.Sprintf("%+v", res.Part))
			}
			return r, msgs, nil
		},
		tel: func(e *env) error {
			for _, h := range halves {
				if _, err := n2n(e, h.cfg); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// buildApps is the application pair: genome assembly on 8 procs at the
// fig12b quick size, then RMA Accumulate on 4 procs with asynchronous
// progress threads (the fig9c shape).
func buildApps(sim uint64) (pass, error) {
	asm := mpisim.AssemblyConfig{
		Lock: mpisim.Mutex, Procs: 8, GenomeLen: 6000, Reads: 1200,
		Seed: sim,
	}
	rma := mpisim.RMAConfig{
		Lock: mpisim.Mutex, Op: mpisim.Accumulate, Procs: 4,
		ElemBytes: 64, Ops: 24, Seed: sim,
	}
	runRMA := func(e *env) (mpisim.RMAResult, error) {
		c := rma
		c.Telemetry = e.telemetry()
		defer e.tr.begin("mpisim.RMA").end()
		return mpisim.RMA(c)
	}
	return pass{
		run: func(e *env) (record, int64, error) {
			sp := e.tr.begin("mpisim.Assembly")
			a, err := mpisim.Assembly(asm)
			sp.end()
			if err != nil {
				return nil, 0, fmt.Errorf("assembly: %w", err)
			}
			m, err := runRMA(e)
			if err != nil {
				return nil, 0, fmt.Errorf("rma: %w", err)
			}
			var r record
			r.add("asm.sim_ns", a.SimNs)
			r.add("asm.contigs", a.Contigs)
			r.add("asm.contig_bases", a.ContigBases)
			r.add("asm.n50", a.N50)
			r.add("rma.sim_ns", m.SimNs)
			r.add("rma.rate", m.RateElemPerSec)
			return r, 1, nil
		},
		tel: func(e *env) error {
			_, err := runRMA(e)
			return err
		},
	}, nil
}

// buildSweep returns the quick sweep over sweepIDs at the given worker
// count (the workload runs one per CPU). Its telemetry subject is the vci
// experiment's traced point (N2N under the mutex on 16 explicit VCIs), one
// of the sweep's own long-pole points.
//
// BENCHMARK.json leaves sweep out: how its points interleave on the
// workers moves a pass's peak RSS by +-12%, too much for a gated metric.
// It stays runnable by name, and the traced runs of every workload still
// time internal/sweep through the sweep.point probe.
func buildSweep(jobs int) func(uint64) (pass, error) {
	return func(sim uint64) (pass, error) { return sweepPass(sim, jobs) }
}

func sweepPass(sim uint64, jobs int) (pass, error) {
	cfg := mpisim.SweepConfig{IDs: sweepIDs, Quick: true, Seed: sim, Jobs: jobs}
	var points int64
	for _, id := range sweepIDs {
		e, err := experiments.Get(id)
		if err != nil {
			return pass{}, err
		}
		pts, err := e.Points(experiments.Options{Quick: true, Seed: cfg.Seed})
		if err != nil {
			return pass{}, err
		}
		points += int64(len(pts))
	}
	probe := mpisim.N2NConfig{
		Lock: mpisim.Mutex, Procs: 4, Threads: 8, MsgBytes: 2048,
		Windows: 4, Seed: sim, PerThreadTags: true,
		VCIs: 16, VCIPolicy: mpisim.ExplicitVCI,
	}
	return pass{
		run: func(e *env) (record, int64, error) {
			sp := e.tr.begin("mpisim.Sweep")
			res, err := mpisim.Sweep(cfg)
			sp.end()
			if err != nil {
				return nil, 0, err
			}
			var r record
			for _, s := range res {
				for _, f := range s.Figures {
					r.add(s.ID+"/"+f.ID, f.Text)
				}
			}
			return r, points, nil
		},
		tel: func(e *env) error {
			c := probe
			c.Telemetry = e.telemetry()
			defer e.tr.begin("mpisim.N2N").end()
			_, err := mpisim.N2N(c)
			return err
		},
	}, nil
}
