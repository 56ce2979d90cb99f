// Package mpicontend's repository-level benchmarks regenerate each table
// and figure of "MPI+Threads: Runtime Contention and Remedies" (PPoPP'15)
// in reduced (Quick) form, one benchmark per experiment, and report the
// figure's headline metric via b.ReportMetric. Run the full-size sweeps
// with cmd/mpistorm.
package mpicontend

import (
	"testing"

	"mpicontend/internal/experiments"
	"mpicontend/internal/fault"
	"mpicontend/internal/machine"
	"mpicontend/internal/mpi"
	"mpicontend/internal/mpi/vci"
	"mpicontend/internal/report"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
	"mpicontend/internal/workloads"
	"mpicontend/mpisim"
)

// benchExperiment runs one registry experiment per iteration and reports
// the mean y of the named series as the benchmark metric.
func benchExperiment(b *testing.B, id, series, unit string) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	var last float64
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(experiments.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		last = meanSeries(b, tables, series)
	}
	b.ReportMetric(last, unit)
}

func meanSeries(b *testing.B, tables []*report.Table, name string) float64 {
	b.Helper()
	for _, t := range tables {
		for _, s := range t.Series {
			if s.Name == name {
				if len(s.Points) == 0 {
					b.Fatalf("series %q empty", name)
				}
				sum := 0.0
				for _, p := range s.Points {
					sum += p.Y
				}
				return sum / float64(len(s.Points))
			}
		}
	}
	b.Fatalf("series %q not found", name)
	return 0
}

// --- Microbenchmark figures ---

func BenchmarkFig2aThroughputMutex(b *testing.B) {
	benchExperiment(b, "fig2a", "8 tpn", "kmsgs/s")
}

func BenchmarkFig2bNUMABinding(b *testing.B) {
	benchExperiment(b, "fig2b", "scatter", "kmsgs/s")
}

func BenchmarkFig3aBiasFactors(b *testing.B) {
	benchExperiment(b, "fig3a", "Core Level", "bias")
}

func BenchmarkFig3cDangling(b *testing.B) {
	benchExperiment(b, "fig3c", "Mutex", "danglingreqs")
}

func BenchmarkFig5aDanglingTicket(b *testing.B) {
	benchExperiment(b, "fig5a", "Ticket", "danglingreqs")
}

func BenchmarkFig5bBindingLocks(b *testing.B) {
	benchExperiment(b, "fig5b", "Ticket_compact", "kmsgs/s")
}

func BenchmarkFig5cPerSocket(b *testing.B) {
	benchExperiment(b, "fig5c", "Ticket", "kmsgs/s")
}

func BenchmarkFig6bN2N(b *testing.B) {
	benchExperiment(b, "fig6b", "Priority", "kmsgs/s")
}

func BenchmarkFig8aThroughputAll(b *testing.B) {
	benchExperiment(b, "fig8a", "Ticket", "kmsgs/s")
}

func BenchmarkFig8bLatency(b *testing.B) {
	benchExperiment(b, "fig8b", "Ticket", "us")
}

func BenchmarkFig9RMAPut(b *testing.B) {
	benchExperiment(b, "fig9a", "Ticket", "kelems/s")
}

func BenchmarkFig9RMAGet(b *testing.B) {
	benchExperiment(b, "fig9b", "Ticket", "kelems/s")
}

func BenchmarkFig9RMAAcc(b *testing.B) {
	benchExperiment(b, "fig9c", "Ticket", "kelems/s")
}

// --- Kernel and application figures ---

func BenchmarkFig10aBFSSingleNode(b *testing.B) {
	benchExperiment(b, "fig10a", "BFS", "MTEPS")
}

func BenchmarkFig10bBFSThreadScaling(b *testing.B) {
	benchExperiment(b, "fig10b", "Ticket", "MTEPS")
}

func BenchmarkFig10cBFSWeakScaling(b *testing.B) {
	benchExperiment(b, "fig10c", "Ticket", "MTEPS")
}

func BenchmarkFig11aStencil(b *testing.B) {
	benchExperiment(b, "fig11a", "Ticket", "GFlops")
}

func BenchmarkFig11bStencilBreakdown(b *testing.B) {
	benchExperiment(b, "fig11b", "Computation", "pct")
}

func BenchmarkFig12bGenome(b *testing.B) {
	benchExperiment(b, "fig12b", "Ticket", "s")
}

// --- Ablations (DESIGN.md design-choice studies) ---

func BenchmarkAblationFutexSpinCount(b *testing.B) {
	benchExperiment(b, "ablation-spin", "Mutex", "kmsgs/s")
}

func BenchmarkAblationPriorityVsThreeMutex(b *testing.B) {
	benchExperiment(b, "ablation-priomutex", "PrioMutex", "kmsgs/s")
}

func BenchmarkAblationSocketAwarePriority(b *testing.B) {
	benchExperiment(b, "ablation-socketprio", "SocketPriority", "kmsgs/s")
}

func BenchmarkAblationMCS(b *testing.B) {
	benchExperiment(b, "ablation-queuelocks", "MCS", "kmsgs/s")
}

// --- Direct workload benchmarks (single configuration per op) ---

func benchThroughput(b *testing.B, kind simlock.Kind, threads int) {
	var rate float64
	for i := 0; i < b.N; i++ {
		r, err := workloads.Throughput(workloads.ThroughputParams{
			Lock: kind, Threads: threads, MsgBytes: 64, Windows: 4,
			Binding: machine.Compact,
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = r.RateMsgsPerSec
	}
	b.ReportMetric(rate, "msgs/s")
}

func BenchmarkThroughputMutex8(b *testing.B)    { benchThroughput(b, simlock.KindMutex, 8) }
func BenchmarkThroughputTicket8(b *testing.B)   { benchThroughput(b, simlock.KindTicket, 8) }
func BenchmarkThroughputPriority8(b *testing.B) { benchThroughput(b, simlock.KindPriority, 8) }
func BenchmarkThroughputSingle(b *testing.B)    { benchThroughput(b, simlock.KindNone, 1) }

// BenchmarkSimulatorEventRate measures raw simulator performance: events
// dispatched per second of wall time while running the throughput
// benchmark (a harness health metric, not a paper figure).
func BenchmarkSimulatorEventRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := mpisim.Throughput(mpisim.ThroughputConfig{
			Lock: mpisim.Ticket, Threads: 8, MsgBytes: 64, Windows: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuitePatterns(b *testing.B) {
	benchExperiment(b, "suite-patterns", "Ticket", "kmsgs/s")
}

func BenchmarkAblationGranularity(b *testing.B) {
	benchExperiment(b, "ablation-granularity", "Ticket", "kmsgs/s")
}

func BenchmarkAblationSelectiveProgress(b *testing.B) {
	benchExperiment(b, "ablation-wakeup", "Mutex_rmaput", "kelems/s")
}

func BenchmarkAblationCohort(b *testing.B) {
	benchExperiment(b, "ablation-socketprio", "Cohort", "kmsgs/s")
}

// BenchmarkChaosSoak measures goodput under the 1% packet-drop fault
// scenario per lock: how much of the fault-free message rate each
// arbitration method retains while the resilient transport retransmits
// around the losses.
func benchChaos(b *testing.B, kind simlock.Kind) {
	var rate float64
	for i := 0; i < b.N; i++ {
		r, err := workloads.Throughput(workloads.ThroughputParams{
			Lock: kind, Threads: 8, MsgBytes: 512, Window: 32, Windows: 4,
			Binding: machine.Compact,
			Fault:   fault.Config{DropProb: 0.01, WatchdogNs: 50_000_000},
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = r.RateMsgsPerSec
	}
	b.ReportMetric(rate, "msgs/s")
}

func BenchmarkChaosSoakMutex(b *testing.B)    { benchChaos(b, simlock.KindMutex) }
func BenchmarkChaosSoakTicket(b *testing.B)   { benchChaos(b, simlock.KindTicket) }
func BenchmarkChaosSoakPriority(b *testing.B) { benchChaos(b, simlock.KindPriority) }
func BenchmarkChaosSoakMCS(b *testing.B)      { benchChaos(b, simlock.KindMCS) }

// --- Per-VCI runtime scaling ---

// benchVCI streams the N2N benchmark over the sharded runtime at the
// given VCI count (one explicitly placed communicator per thread) and
// reports the message rate: the 1/4/16/64 progression is the vci
// experiment's fine-grained-resources crossover in benchmark form, under
// the lock kind the sharding is supposed to make irrelevant.
func benchVCI(b *testing.B, vcis int) {
	var rate float64
	for i := 0; i < b.N; i++ {
		r, err := workloads.N2N(workloads.N2NParams{
			Lock: simlock.KindMutex, Procs: 4, Threads: 8, MsgBytes: 2048,
			Windows: 4, PerThreadTags: true,
			VCIs: vcis, VCIPolicy: vci.Explicit,
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = r.RateMsgsPerSec
	}
	b.ReportMetric(rate, "msgs/s")
}

func BenchmarkVCIScaling1(b *testing.B)  { benchVCI(b, 1) }
func BenchmarkVCIScaling4(b *testing.B)  { benchVCI(b, 4) }
func BenchmarkVCIScaling16(b *testing.B) { benchVCI(b, 16) }
func BenchmarkVCIScaling64(b *testing.B) { benchVCI(b, 64) }

// --- Progress modes ---

// benchProgressMode streams the N2N benchmark (the progress experiment's
// 1-VCI mutex point) under the given progress mode and reports the
// message rate: polling is the paper's poll-from-Wait baseline, strong
// moves the progress loop onto per-shard daemons, and continuation
// replaces the Waitall polling with completion-queue draining.
func benchProgressMode(b *testing.B, m mpi.ProgressMode) {
	var rate float64
	for i := 0; i < b.N; i++ {
		r, err := workloads.N2N(workloads.N2NParams{
			Lock: simlock.KindMutex, Procs: 4, Threads: 8, MsgBytes: 2048,
			Windows: 4, PerThreadTags: true,
			VCIs: 1, VCIPolicy: vci.Explicit, Progress: m,
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = r.RateMsgsPerSec
	}
	b.ReportMetric(rate, "msgs/s")
}

func BenchmarkProgressModePolling(b *testing.B)      { benchProgressMode(b, mpi.ProgressPolling) }
func BenchmarkProgressModeStrong(b *testing.B)       { benchProgressMode(b, mpi.ProgressStrong) }
func BenchmarkProgressModeContinuation(b *testing.B) { benchProgressMode(b, mpi.ProgressContinuation) }

// --- Rank-failure recovery ---

// benchRecovery runs the fault-tolerant workload through a mid-run rank
// crash and reports the heartbeat detection latency — the time from the
// fail-stop to the first survivor declaring the rank dead. The sim time
// is deterministic; the benchmark's wall time tracks how expensive the
// error path (revoke flood, shrink consensus, redistribution) is to
// simulate under each arbitration method.
func benchRecovery(b *testing.B, kind simlock.Kind, strat workloads.RecoveryStrategy) {
	var detect float64
	for i := 0; i < b.N; i++ {
		r, err := workloads.Recovery(workloads.RecoveryParams{
			Lock: kind, Procs: 4, ProcsPerNode: 2, Iters: 24, Strategy: strat,
			Fault: fault.Config{Crashes: []fault.CrashSpec{{Rank: 2, AtNs: 60_000}}},
		})
		if err != nil {
			b.Fatal(err)
		}
		detect = float64(r.Recovery.DetectNs)
	}
	b.ReportMetric(detect, "detect-ns")
}

func BenchmarkRecoveryDetectMutex(b *testing.B) {
	benchRecovery(b, simlock.KindMutex, workloads.RecoverShrink)
}
func BenchmarkRecoveryDetectTicket(b *testing.B) {
	benchRecovery(b, simlock.KindTicket, workloads.RecoverShrink)
}
func BenchmarkRecoveryCheckpointMutex(b *testing.B) {
	benchRecovery(b, simlock.KindMutex, workloads.RecoverCheckpoint)
}

// --- Telemetry overhead ---

// benchTelemetry runs the fig8a-shaped contended throughput point with or
// without the telemetry plane attached. Comparing the Disabled variant
// against a pre-telemetry baseline (or against Enabled) quantifies the
// cost of the nil-check hook sites on the hot path; the disabled path
// must stay within noise (≤2%) of the untouched runtime.
func benchTelemetry(b *testing.B, enabled bool) {
	var rate float64
	for i := 0; i < b.N; i++ {
		var rec *telemetry.Recorder
		if enabled {
			rec = telemetry.New()
		}
		r, err := workloads.Throughput(workloads.ThroughputParams{
			Lock: simlock.KindMutex, Threads: 8, MsgBytes: 64,
			Window: 32, Windows: 4, Tel: rec,
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = r.RateMsgsPerSec
	}
	b.ReportMetric(rate, "msgs/s")
}

func BenchmarkTelemetryDisabled(b *testing.B) { benchTelemetry(b, false) }
func BenchmarkTelemetryEnabled(b *testing.B)  { benchTelemetry(b, true) }

// --- Parallel sweep speedup ---

// benchSweepJobs regenerates a fixed bundle of experiments through the
// parallel sweep at the given worker count; comparing Serial against
// Jobs4/Jobs8 on a multicore machine measures the orchestrator's
// wall-clock speedup (on 4+ cores, Jobs4 should run at least ~2x faster
// than Serial). Output equality across worker counts is asserted by
// TestSweepMatchesSerial and `make parity`; these benchmarks measure only
// time.
func benchSweepJobs(b *testing.B, jobs int) {
	ids := []string{"fig2a", "fig5b", "fig8a", "suite-patterns", "ablation-queuelocks"}
	for i := 0; i < b.N; i++ {
		if _, err := mpisim.Sweep(mpisim.SweepConfig{
			IDs: ids, Quick: true, Jobs: jobs,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSerial(b *testing.B) { benchSweepJobs(b, 1) }
func BenchmarkSweepJobs4(b *testing.B)  { benchSweepJobs(b, 4) }
func BenchmarkSweepJobs8(b *testing.B)  { benchSweepJobs(b, 8) }
