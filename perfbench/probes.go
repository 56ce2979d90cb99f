package main

//simcheck:allow-file nodeterm benchmark harness times host work; no wall-clock value reaches simulation state
//simcheck:allow-file nogoroutine the sweep probe counts points from the orchestrator's OS workers

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"mpicontend/internal/fabric"
	"mpicontend/internal/machine"
	"mpicontend/internal/mpi"
	"mpicontend/internal/sim"
	"mpicontend/internal/simlock"
	"mpicontend/internal/sweep"
)

// probe times one kind of operation through a layer's public API on a
// bare engine or world. run performs ops operations and returns how many
// it observed completing; a probe that did less work than asked fails
// instead of reporting a faster ns/op.
type probe struct {
	name string
	ops  int
	// procs is the GOMAXPROCS the probe runs at: 1 for the simulator
	// layers (one simthread runs at a time), 0 for one P per CPU.
	procs int
	run   func(ops int) (int64, error)
}

// probeResult is the median cost of one operation over the timed reps.
type probeResult struct {
	ns, allocs float64
}

const probeReps = 5

// measure runs one untimed rep, then probeReps timed reps, each inside a
// span, and returns the medians.
func (p probe) measure(tr *tracer) (probeResult, error) {
	procs := p.procs
	if procs == 0 {
		procs = runtime.NumCPU()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer tr.begin("probe:" + p.name).end()
	var ns, allocs []float64
	for rep := -1; rep < probeReps; rep++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := tr.begin(p.name)
		t0 := time.Now()
		done, err := p.run(p.ops)
		el := time.Since(t0)
		sp.end()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return probeResult{}, fmt.Errorf("probe %s: %w", p.name, err)
		}
		if done != int64(p.ops) {
			return probeResult{}, fmt.Errorf("probe %s: observed %d operations, asked for %d", p.name, done, p.ops)
		}
		if rep < 0 {
			continue
		}
		ns = append(ns, float64(el.Nanoseconds())/float64(p.ops))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(p.ops))
	}
	return probeResult{ns: median(ns), allocs: median(allocs)}, nil
}

// probes lists every layer probe, in the order the traced run takes them.
var probes = []probe{
	{name: "sim.event", ops: 400_000, procs: 1, run: probeEvents},
	{name: "sim.switch", ops: 100_000, procs: 1, run: probeSwitches},
	{name: "sim.park", ops: 100_000, procs: 1, run: probeParks},
	{name: "simlock.grant.mutex", ops: 16_000, procs: 1, run: grantProbe(simlock.KindMutex)},
	{name: "simlock.grant.ticket", ops: 16_000, procs: 1, run: grantProbe(simlock.KindTicket)},
	{name: "simlock.grant.priority", ops: 16_000, procs: 1, run: grantProbe(simlock.KindPriority)},
	{name: "simlock.grant.clh", ops: 16_000, procs: 1, run: grantProbe(simlock.KindCLH)},
	{name: "mpi.pair", ops: 5_000, procs: 1, run: pairProbe(1, mpi.ProgressPolling)},
	{name: "mpi.pair.cont16", ops: 2_000, procs: 1, run: pairProbe(16, mpi.ProgressContinuation)},
	{name: "fabric.packet", ops: 200_000, procs: 1, run: probePackets},
	{name: "sweep.point", ops: 64 * 500, procs: 0, run: probeSweepPoints},
}

// eventChains is how many self-rescheduling callbacks the event probe
// keeps pending, so pops come from a queue of realistic depth.
const eventChains = 64

// probeEvents dispatches ops Engine.At callbacks through Run.
func probeEvents(ops int) (int64, error) {
	eng := sim.NewEngine(1)
	var fired int64
	scheduled := 0
	for c := 0; c < eventChains && scheduled < ops; c++ {
		delay := sim.Time(1 + c*37%97)
		var fn func()
		fn = func() {
			fired++
			if scheduled < ops {
				scheduled++
				eng.At(eng.Now()+delay, fn)
			}
		}
		scheduled++
		eng.At(delay, fn)
	}
	if err := eng.Run(); err != nil {
		return 0, err
	}
	if eng.EventsRun() != uint64(fired) {
		return 0, fmt.Errorf("engine ran %d events, callbacks saw %d", eng.EventsRun(), fired)
	}
	return fired, nil
}

// probeSwitches makes ops Thread.Sleep round trips: each hands the baton
// from the simthread to the engine and back.
func probeSwitches(ops int) (int64, error) {
	eng := sim.NewEngine(1)
	var woke int64
	eng.Spawn("switch", func(t *sim.Thread) {
		for i := 0; i < ops; i++ {
			t.Sleep(1)
			woke++
		}
	})
	if err := eng.Run(); err != nil {
		return 0, err
	}
	return woke, nil
}

// probeParks makes ops Park/Unpark pairs: an engine callback unparks a
// parked simthread, which parks again.
func probeParks(ops int) (int64, error) {
	eng := sim.NewEngine(1)
	var parks, unparks int64
	th := eng.Spawn("parker", func(t *sim.Thread) {
		for i := 0; i < ops; i++ {
			t.Park()
			parks++
		}
	})
	var tick func()
	tick = func() {
		if th.Parked() {
			th.Unpark(eng.Now())
			unparks++
		}
		if unparks < int64(ops) {
			eng.At(eng.Now()+1, tick)
		}
	}
	eng.At(1, tick)
	if err := eng.Run(); err != nil {
		return 0, err
	}
	if parks != unparks {
		return 0, fmt.Errorf("%d parks resumed by %d unparks", parks, unparks)
	}
	return parks, nil
}

// grantThreads is the contention level of the lock probes.
const grantThreads = 8

// grantProbe returns a probe of ops Acquire/Release pairs on one lock of
// the given kind, shared by eight simthreads on one node. Each grant is
// observed by the thread that acquired it, which also checks that no
// other thread holds the lock.
func grantProbe(kind simlock.Kind) func(int) (int64, error) {
	return func(ops int) (int64, error) {
		eng := sim.NewEngine(1)
		topo := machine.Nehalem2x4(1)
		lk := simlock.New(kind, &simlock.Config{Eng: eng, Cost: machine.Default()})
		var grants int64
		holders := 0
		var fault error
		per := ops / grantThreads
		for i := 0; i < grantThreads; i++ {
			place := topo.PlaceOf(0, i)
			eng.Spawn(fmt.Sprintf("contender%d", i), func(t *sim.Thread) {
				c := &simlock.Ctx{T: t, Place: place}
				for j := 0; j < per; j++ {
					lk.Acquire(c, simlock.High)
					holders++
					if holders != 1 && fault == nil {
						fault = fmt.Errorf("%v: %d holders at %d", kind, holders, t.Now())
					}
					grants++
					t.Sleep(100)
					holders--
					lk.Release(c, simlock.High)
					t.Sleep(50)
				}
			})
		}
		if err := eng.Run(); err != nil {
			return 0, err
		}
		return grants, fault
	}
}

// pairProbe returns a probe of ops matched Isend/Irecv/Waitall pairs
// between two single-threaded ranks on a 2-node world.
func pairProbe(vcis int, mode mpi.ProgressMode) func(int) (int64, error) {
	return func(ops int) (int64, error) {
		w, err := mpi.NewWorld(mpi.Config{
			Topo: machine.Nehalem2x4(2), Lock: simlock.KindMutex,
			Seed: 1, VCIs: vcis, Progress: mode,
		})
		if err != nil {
			return 0, err
		}
		comm := w.Comm()
		var matched int64
		var fault error
		w.Spawn(0, "sender", func(th *mpi.Thread) {
			rs := []*mpi.Request{nil}
			for i := 0; i < ops; i++ {
				rs[0] = th.Isend(comm, 1, 0, 64, nil)
				if err := th.Waitall(rs); err != nil && fault == nil {
					fault = err
				}
			}
		})
		w.Spawn(1, "receiver", func(th *mpi.Thread) {
			rs := []*mpi.Request{nil}
			for i := 0; i < ops; i++ {
				rs[0] = th.Irecv(comm, 0, 0)
				if err := th.Waitall(rs); err != nil {
					if fault == nil {
						fault = err
					}
					continue
				}
				matched++
			}
		})
		if err := w.Run(); err != nil {
			return 0, err
		}
		return matched, fault
	}
}

// packetBurst is how many packets the fabric probe injects per engine
// callback.
const packetBurst = 64

// probePackets sends ops packets between endpoints on two nodes, each
// from Endpoint.Send to the destination handler.
func probePackets(ops int) (int64, error) {
	eng := sim.NewEngine(1)
	fab := fabric.New(eng, machine.Default())
	var delivered int64
	fab.Attach(0, 0, func(p *fabric.Packet) {})
	fab.Attach(1, 1, func(p *fabric.Packet) {
		delivered++
		fab.FreePacket(p)
	})
	ep := fab.Endpoint(0)
	sent := 0
	var burst func()
	burst = func() {
		for i := 0; i < packetBurst && sent < ops; i++ {
			p := fab.AllocPacket()
			p.Kind, p.Src, p.Dst, p.Bytes = fabric.Eager, 0, 1, 64
			ep.Send(p, false)
			sent++
		}
		if sent < ops {
			eng.At(ep.TxFreeAt(), burst)
		}
	}
	eng.At(0, burst)
	if err := eng.Run(); err != nil {
		return 0, err
	}
	return delivered, nil
}

// sweepCallPoints is the size of each empty sweep the sweep probe runs.
const sweepCallPoints = 64

// probeSweepPoints pushes ops empty points through sweep.Run at one
// worker per CPU, sweepCallPoints per call, so worker start-up and
// hand-out are both in the per-point cost.
func probeSweepPoints(ops int) (int64, error) {
	var ran atomic.Int64
	for done := 0; done < ops; done += sweepCallPoints {
		if err := sweep.Run(sweep.DefaultWorkers(), sweepCallPoints, func(int) error {
			ran.Add(1)
			return nil
		}); err != nil {
			return 0, err
		}
	}
	return ran.Load(), nil
}
