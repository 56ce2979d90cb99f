package main

//simcheck:allow-file nodeterm benchmark harness times host work; no wall-clock value reaches simulation state

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"mpicontend/mpisim"
)

// tracedRun is the per-layer run. It never feeds the end-to-end metrics:
// it times the telemetry-capable calls of the job's first variant with
// the telemetry plane off and on (telemetry.overhead_x), reads the
// plane's counts per simulated message, runs one main pass under spans,
// times every layer probe, and writes all spans with their self times to
// traceDir.
func tracedRun(w workload, seed uint64, seconds float64, pins []string) (result, error) {
	t0 := time.Now()
	tr := newTracer()
	root := tr.begin("run:" + w.name)
	j, recs, err := setUp(w, seed, pins, tr)
	if j.passes == nil {
		return result{}, err
	}
	c := &checker{pins: j.pins}
	c.check("warm-up pass", recs, err)

	// Alternate untraced and traced calls so host noise hits both sides.
	var plain, traced []float64
	var tels []*mpisim.Telemetry
	for len(plain) < 3 || time.Since(t0).Seconds() < seconds/2 {
		for _, on := range []bool{false, true} {
			e := &env{tr: tr, traced: on}
			sp := tr.begin(fmt.Sprintf("telemetry-subject traced=%v", on))
			c0 := cpuSeconds()
			err := j.passes[0].tel(e)
			cpu := cpuSeconds() - c0
			sp.end()
			if err != nil {
				return result{}, fmt.Errorf("telemetry subject: %w", err)
			}
			if on {
				traced = append(traced, cpu)
				tels = e.tels
			} else {
				plain = append(plain, cpu)
			}
		}
	}
	sp := tr.begin("telemetry counts")
	counts, err := telemetryCounts(tels)
	sp.end()
	if err != nil {
		return result{}, err
	}
	counts["telemetry.overhead_x"] = median(traced) / median(plain)

	sp = tr.begin("main pass")
	recs, _, err = j.run(&env{tr: tr})
	sp.end()
	c.check("traced main pass", recs, err)

	layer := map[string]probeResult{}
	for _, pr := range probes {
		r, err := pr.measure(tr)
		if err != nil {
			return result{}, err
		}
		layer[pr.name] = r
	}
	root.end()
	path, err := tr.write(w.name, seed, counts)
	if err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)

	m := map[string]metric{
		"sim.event_ns":                    {layer["sim.event"].ns, "ns"},
		"sim.switch_ns":                   {layer["sim.switch"].ns, "ns"},
		"sim.park_ns":                     {layer["sim.park"].ns, "ns"},
		"sim.allocs_per_switch":           {layer["sim.switch"].allocs, "allocs/switch"},
		"simlock.grant_ns.mutex":          {layer["simlock.grant.mutex"].ns, "ns"},
		"simlock.grant_ns.ticket":         {layer["simlock.grant.ticket"].ns, "ns"},
		"simlock.grant_ns.priority":       {layer["simlock.grant.priority"].ns, "ns"},
		"simlock.grant_ns.clh":            {layer["simlock.grant.clh"].ns, "ns"},
		"simlock.allocs_per_grant.mutex":  {layer["simlock.grant.mutex"].allocs, "allocs/grant"},
		"simlock.allocs_per_grant.ticket": {layer["simlock.grant.ticket"].allocs, "allocs/grant"},
		"mpi.pair_ns":                     {layer["mpi.pair"].ns, "ns"},
		"mpi.allocs_per_pair":             {layer["mpi.pair"].allocs, "allocs/pair"},
		"mpi.pair_ns.cont16":              {layer["mpi.pair.cont16"].ns, "ns"},
		"fabric.packet_ns":                {layer["fabric.packet"].ns, "ns"},
		"fabric.allocs_per_packet":        {layer["fabric.packet"].allocs, "allocs/packet"},
		"sweep.point_us":                  {layer["sweep.point"].ns / 1e3, "us"},
	}
	for name, unit := range telemetryUnits {
		m[name] = metric{counts[name], unit}
	}
	return c.result(m), nil
}

// telemetryUnits names the per-message telemetry metrics and their units.
var telemetryUnits = map[string]string{
	"mpi.calls_per_msg":              "calls/msg",
	"mpi.polls_per_msg":              "polls/msg",
	"mpi.useful_poll_frac":           "ratio",
	"simlock.acq_per_msg":            "acq/msg",
	"simlock.wasted_low_acq_per_msg": "acq/msg",
	"simlock.uncontended_frac":       "ratio",
	"simlock.wait_sim_ns_per_msg":    "sim_ns/msg",
	"fabric.flights_per_msg":         "flights/msg",
	"telemetry.spans_per_msg":        "spans/msg",
	"telemetry.overhead_x":           "x",
}

// telemetryCounts sums what the recorders of one traced call set saw and
// divides by its simulated messages: payload-bearing flights, as the
// plane's critical-path analysis counts them.
func telemetryCounts(tels []*mpisim.Telemetry) (map[string]float64, error) {
	var msgs, spans, polls, useful, wasted, acq, uncont, calls, flights int64
	var waitNs float64
	for _, t := range tels {
		p := t.Profile()
		msgs += p.CriticalPath.Messages
		spans += int64(t.Spans())
		polls += p.Progress.Polls
		useful += p.Progress.UsefulPolls
		wasted += p.Progress.WastedLowAcq
		for _, l := range p.Locks {
			acq += l.Acquisitions
			uncont += l.Uncontended
			waitNs += l.Wait.MeanNs * float64(l.Wait.Count)
		}
		var tf struct {
			TraceEvents []struct {
				Ph  string `json:"ph"`
				Cat string `json:"cat"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(t.PerfettoJSON(), &tf); err != nil {
			return nil, fmt.Errorf("telemetry trace: %w", err)
		}
		for _, ev := range tf.TraceEvents {
			switch {
			case ev.Cat == "mpi":
				calls++
			case ev.Cat == "flight" && ev.Ph == "b":
				flights++
			}
		}
	}
	if msgs == 0 {
		return nil, fmt.Errorf("telemetry recorded no messages over %d recorders", len(tels))
	}
	per := func(n int64) float64 { return float64(n) / float64(msgs) }
	frac := func(n, d int64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	return map[string]float64{
		"mpi.calls_per_msg":              per(calls),
		"mpi.polls_per_msg":              per(polls),
		"mpi.useful_poll_frac":           frac(useful, polls),
		"simlock.acq_per_msg":            per(acq),
		"simlock.wasted_low_acq_per_msg": per(wasted),
		"simlock.uncontended_frac":       frac(uncont, acq),
		"simlock.wait_sim_ns_per_msg":    waitNs / float64(msgs),
		"fabric.flights_per_msg":         per(flights),
		"telemetry.spans_per_msg":        per(spans),
	}, nil
}
