package experiments

import (
	"fmt"

	"mpicontend/internal/report"
	"mpicontend/internal/sweep"
)

// Point is one independent simulation unit of an experiment: a single
// figure point (or self-contained validation step) that constructs its
// own isolated sim engine and RNG from its captured parameters when run.
// Points share no state with each other, so any subset may execute
// concurrently — or in any order — without changing a single result bit.
type Point struct {
	// Exp is the owning experiment's id and Seq the point's ordinal in
	// the experiment's declaration order.
	Exp string
	Seq int

	n   int
	run func() ([]float64, error)
}

// Result is the value vector one Point produced.
type Result struct {
	Values []float64
}

// Run executes the point's simulation. It is pure: the same point always
// yields the same Result, and concurrent Runs of distinct points never
// interfere.
func (p Point) Run() (Result, error) {
	vs, err := p.run()
	if err != nil {
		return Result{}, err
	}
	if len(vs) != p.n {
		return Result{}, fmt.Errorf("experiments: point %s/%d yielded %d values, declared %d",
			p.Exp, p.Seq, len(vs), p.n)
	}
	return Result{Values: vs}, nil
}

// Plan is the two-phase collector behind the compute/render split. Every
// experiment is written once as a builder that calls Plan.Value /
// Plan.Values / Plan.Check for each simulation it needs:
//
//   - In the declare phase the closures are recorded as Points and
//     placeholder zeros are returned, so the builder lays out its tables
//     without running anything.
//   - In the render phase the precomputed Results are replayed in
//     declaration order, so the builder fills the same tables with real
//     values — without re-running anything.
//
// Builders must therefore be deterministic in their declaration sequence
// (loops over static configuration only), which Render verifies by
// checking that the replay consumes exactly the declared points.
type Plan struct {
	declare bool
	exp     string
	points  []Point
	results []Result
	next    int
	overrun bool
}

// Values registers (declare phase) or replays (render phase) a point
// yielding n values.
func (p *Plan) Values(n int, run func() ([]float64, error)) []float64 {
	if p.declare {
		p.points = append(p.points, Point{Exp: p.exp, Seq: len(p.points), n: n, run: run})
		return make([]float64, n)
	}
	if p.next >= len(p.results) {
		p.overrun = true
		return make([]float64, n)
	}
	r := p.results[p.next]
	p.next++
	if len(r.Values) != n {
		p.overrun = true
		return make([]float64, n)
	}
	return r.Values
}

// Value is Values for the common single-valued point.
func (p *Plan) Value(run func() (float64, error)) float64 {
	v := p.Values(1, func() ([]float64, error) {
		y, err := run()
		return []float64{y}, err
	})
	return v[0]
}

// Check registers a zero-valued validation point (e.g. the chaos kernel
// cross-checks): all compute, no figure values.
func (p *Plan) Check(run func() error) {
	p.Values(0, func() ([]float64, error) { return nil, run() })
}

// Points returns the experiment's independent work units for the given
// options, in declaration order.
func (e Experiment) Points(o Options) ([]Point, error) {
	p := &Plan{declare: true, exp: e.ID}
	if _, err := e.build(o, p); err != nil {
		return nil, err
	}
	return p.points, nil
}

// Render assembles the experiment's tables from precomputed point
// results. results must line up one-to-one with Points(o) — same options,
// same order — which Render verifies.
func (e Experiment) Render(o Options, results []Result) ([]*report.Table, error) {
	p := &Plan{exp: e.ID, results: results}
	tables, err := e.build(o, p)
	if err != nil {
		return nil, err
	}
	if p.overrun || p.next != len(results) {
		return nil, fmt.Errorf("experiments: %s render consumed %d results, have %d (options mismatch?)",
			e.ID, p.next, len(results))
	}
	return tables, nil
}

// RunAllFunc runs several experiments, fanning all their points across
// jobs parallel workers (jobs 1 runs every point in order on the calling
// goroutine, jobs <= 0 means one worker per CPU), and calls emit once per
// experiment in ids order as soon as that experiment's tables are ready.
// Each point builds its own engine and RNG, and the ordered merge
// serializes emissions, so the emitted tables are byte-identical at any
// jobs value. emit may be invoked from an internal worker goroutine, but
// never concurrently.
//
// On failure the experiments before the first failing one still emit —
// the same prefix a serial run would have printed — and the first
// failure's error is returned.
func RunAllFunc(ids []string, o Options, jobs int,
	emit func(idx int, id string, tables []*report.Table) error) error {
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, err := Get(id)
		if err != nil {
			return err
		}
		exps[i] = e
	}

	var flat []Point
	sizes := make([]int, len(exps))
	for i, e := range exps {
		pts, err := e.Points(o)
		if err != nil {
			return err
		}
		sizes[i] = len(pts)
		flat = append(flat, pts...)
	}
	return sweep.MapGroups(jobs, sizes,
		func(i int) (Result, error) { return flat[i].Run() },
		func(g int, results []Result) error {
			tables, err := exps[g].Render(o, results)
			if err != nil {
				return err
			}
			return emit(g, exps[g].ID, tables)
		})
}

// RunAll is RunAllFunc collecting each experiment's tables, aligned with
// ids.
func RunAll(ids []string, o Options, jobs int) ([][]*report.Table, error) {
	out := make([][]*report.Table, len(ids))
	err := RunAllFunc(ids, o, jobs, func(idx int, id string, tables []*report.Table) error {
		out[idx] = tables
		return nil
	})
	return out, err
}
