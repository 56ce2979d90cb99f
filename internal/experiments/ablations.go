package experiments

import (
	"mpicontend/internal/machine"
	"mpicontend/internal/mpi"
	"mpicontend/internal/report"
	"mpicontend/internal/simlock"
	"mpicontend/internal/stencil"
	"mpicontend/internal/workloads"
)

func init() {
	register("ablation-spin", "Mutex spin-before-sleep budget sweep", ablationSpin)
	register("ablation-priomutex", "Priority built from mutexes (§7)", ablationPrioMutex)
	register("ablation-socketprio", "Socket-aware priority starvation (§7)", ablationSocketPrio)
	register("ablation-queuelocks", "Ticket vs MCS vs TAS (§8)", ablationQueueLocks)
	register("ablation-granularity", "Granularity x arbitration matrix (Fig. 1 + §7)", ablationGranularity)
	register("ablation-wakeup", "Selective thread wake-up (§9 future work)", ablationWakeup)
	register("suite-patterns", "Multithreaded MPI pattern battery (§8 ref [27])", suitePatterns)
	register("ablation-funneled", "THREAD_FUNNELED vs THREAD_MULTIPLE stencil (§6.2.2)", ablationFunneled)
}

// ablationSpin sweeps the NPTL spin budget: longer user-space spinning
// trades futex wake bubbles for CAS-storm traffic.
func ablationSpin(o Options, pl *Plan) ([]*report.Table, error) {
	t := &report.Table{ID: "ablation-spin", Title: "Mutex spin budget vs throughput (8 threads, 64B)",
		XLabel: "spin budget ns", YLabel: "10^3 msgs/s"}
	s := t.AddSeries("Mutex")
	for _, budget := range []int64{0, 50, 200, 1000, 5000} {
		cm := machine.Default()
		cm.MutexSpinBudget = budget
		p := baseTP(o, simlock.KindMutex, 8, 64)
		p.Cost = cm
		s.Add(float64(budget), throughputRate(pl, p))
	}
	return []*report.Table{t}, nil
}

// ablationPrioMutex measures the paper's §7 claim that three mutexes
// cannot build a working priority lock.
func ablationPrioMutex(o Options, pl *Plan) ([]*report.Table, error) {
	t := &report.Table{ID: "ablation-priomutex", Title: "Priority lock construction comparison",
		XLabel: "msg bytes", YLabel: "10^3 msgs/s"}
	for _, k := range []simlock.Kind{simlock.KindPriority, simlock.KindPrioMutex, simlock.KindTicket} {
		k := k
		throughputSeries(o, pl, t, k.String(), func(b int64) workloads.ThroughputParams {
			return baseTP(o, k, 8, b)
		})
	}
	return []*report.Table{t}, nil
}

// ablationSocketPrio shows the §7 socket-aware variant: good throughput,
// terrible fairness.
func ablationSocketPrio(o Options, pl *Plan) ([]*report.Table, error) {
	t := &report.Table{ID: "ablation-socketprio",
		Title:  "Socket-aware arbitration: throughput and starvation",
		XLabel: "msg bytes", YLabel: "10^3 msgs/s (rate series) / requests (dangling series)"}
	for _, k := range []simlock.Kind{simlock.KindTicket, simlock.KindSocketPriority, simlock.KindCohort} {
		rate := t.AddSeries(k.String())
		dang := t.AddSeries(k.String() + "_dangling")
		for _, bytes := range o.msgSizes() {
			if bytes > 4096 {
				continue
			}
			p := baseTP(o, k, 8, bytes)
			v := pl.Values(2, func() ([]float64, error) {
				r, err := tracedThroughput(p)
				if err != nil {
					return nil, err
				}
				return []float64{r.RateMsgsPerSec / 1000, r.Arbitration.DanglingAvg}, nil
			})
			rate.Add(float64(bytes), v[0])
			dang.Add(float64(bytes), v[1])
		}
	}
	return []*report.Table{t}, nil
}

// ablationQueueLocks compares the FIFO lock family from the related work.
func ablationQueueLocks(o Options, pl *Plan) ([]*report.Table, error) {
	t := &report.Table{ID: "ablation-queuelocks", Title: "Ticket vs MCS vs TAS",
		XLabel: "msg bytes", YLabel: "10^3 msgs/s"}
	for _, k := range []simlock.Kind{simlock.KindTicket, simlock.KindMCS, simlock.KindTAS} {
		k := k
		throughputSeries(o, pl, t, k.String(), func(b int64) workloads.ThroughputParams {
			return baseTP(o, k, 8, b)
		})
	}
	return []*report.Table{t}, nil
}

// ablationGranularity crosses the paper's two dimensions — critical-section
// granularity (Fig. 1) and arbitration — the §7 "cost-effectiveness study"
// the paper calls for.
func ablationGranularity(o Options, pl *Plan) ([]*report.Table, error) {
	t := &report.Table{ID: "ablation-granularity",
		Title:  "Granularity x arbitration (8 threads, 64B messages)",
		XLabel: "granularity (0=Global 1=Brief 2=Fine 3=LockFree)",
		YLabel: "10^3 msgs/s"}
	grans := []mpi.Granularity{mpi.GranGlobal, mpi.GranBrief, mpi.GranFine, mpi.GranLockFree}
	for _, k := range []simlock.Kind{simlock.KindMutex, simlock.KindTicket, simlock.KindPriority} {
		s := t.AddSeries(k.String())
		for gi, g := range grans {
			p := baseTP(o, k, 8, 64)
			p.Granularity = g
			s.Add(float64(gi), throughputRate(pl, p))
		}
	}
	return []*report.Table{t}, nil
}

// ablationWakeup measures the paper's §9 future-work proposal — selective
// thread wake-up on events instead of busy polling — on the workloads that
// waste the most lock acquisitions.
func ablationWakeup(o Options, pl *Plan) ([]*report.Table, error) {
	t := &report.Table{ID: "ablation-wakeup",
		Title:  "Selective thread wake-up (§9 future work)",
		XLabel: "mode (0=polling 1=selective)", YLabel: "rate (10^3/s)"}
	ops := 16
	if o.Quick {
		ops = 6
	}
	for _, k := range []simlock.Kind{simlock.KindMutex, simlock.KindTicket} {
		tp := t.AddSeries(k.String() + "_throughput")
		rm := t.AddSeries(k.String() + "_rmaput")
		for x, mode := range []mpi.ProgressMode{mpi.ProgressPolling, mpi.ProgressSelective} {
			p := baseTP(o, k, 8, 64)
			p.Progress = mode
			tp.Add(float64(x), throughputRate(pl, p))
			rp := workloads.RMAParams{
				Lock: k, Op: workloads.OpPut, ElemBytes: 64, Ops: ops,
				Window: 1, Seed: o.seed(), Progress: mode,
			}
			rmRate := pl.Value(func() (float64, error) {
				rr, err := workloads.RMA(rp)
				if err != nil {
					return 0, err
				}
				return rr.RateElemPerSec / 1000, nil
			})
			rm.Add(float64(x), rmRate)
		}
	}
	return []*report.Table{t}, nil
}

// suitePatterns runs the Thakur–Gropp-style multithreaded pattern battery
// (§8, ref [27]) across the three main locks.
func suitePatterns(o Options, pl *Plan) ([]*report.Table, error) {
	t := &report.Table{ID: "suite-patterns",
		Title:  "Multithreaded MPI pattern battery (after Thakur & Gropp)",
		XLabel: "pattern (0=pairs 1=fanin 2=fanout 3=overlap)",
		YLabel: "10^3 msgs/s"}
	msgs := 64
	if o.Quick {
		msgs = 24
	}
	for _, k := range []simlock.Kind{simlock.KindMutex, simlock.KindTicket, simlock.KindPriority} {
		s := t.AddSeries(k.String())
		for pi, pat := range workloads.Patterns() {
			p := workloads.PatternParams{
				Lock: k, Pattern: pat, Threads: 8, Msgs: msgs, Seed: o.seed(),
			}
			rate := pl.Value(func() (float64, error) {
				r, err := workloads.RunPattern(p)
				if err != nil {
					return 0, err
				}
				return r.RateMsgsPerSec / 1000, nil
			})
			s.Add(float64(pi), rate)
		}
	}
	return []*report.Table{t}, nil
}

// ablationFunneled contrasts the FUNNELED structure common stencils use
// (one communicating thread, lock-free runtime) with THREAD_MULTIPLE under
// mutex and ticket arbitration (§6.2.2's framing).
func ablationFunneled(o Options, pl *Plan) ([]*report.Table, error) {
	t := &report.Table{ID: "ablation-funneled",
		Title:  "Stencil: THREAD_FUNNELED vs THREAD_MULTIPLE",
		XLabel: "grid edge", YLabel: "GFlops"}
	edges := []int{16, 32, 64}
	iters := 4
	if o.Quick {
		edges = []int{16, 32}
		iters = 3
	}
	type cfg struct {
		name     string
		lock     simlock.Kind
		funneled bool
	}
	for _, c := range []cfg{
		{"Funneled", simlock.KindNone, true},
		{"Multiple_Mutex", simlock.KindMutex, false},
		{"Multiple_Ticket", simlock.KindTicket, false},
	} {
		s := t.AddSeries(c.name)
		for _, e := range edges {
			p := stencil.Params{
				Lock: c.lock, Procs: 4, Threads: 8,
				NX: e, NY: e, NZ: e, Iters: iters,
				Funneled: c.funneled, Seed: o.seed(),
			}
			gflops := pl.Value(func() (float64, error) {
				r, err := stencil.Run(p)
				if err != nil {
					return 0, err
				}
				return r.GFlops, nil
			})
			s.Add(float64(e), gflops)
		}
	}
	return []*report.Table{t}, nil
}
