package sim

import (
	"fmt"
	"testing"
)

// This file property-tests the timer-wheel event core against a reference
// scheduler: a naive unsorted list whose pop scans for the minimum
// (when, seq). Both sides execute the same pseudo-random program of
// At/After/AtTimer/Cancel/Spawn operations; the observable firing logs
// (event id @ virtual time, in order) must match entry-for-entry. Any
// divergence in tie-breaking, cascade order, far-heap hand-over, or
// cancel semantics shows up as a log mismatch.

// --- reference scheduler ---

type refEv struct {
	when      Time
	seq       uint64
	id        int
	step      int // -1 plain event, 0 spawn start, n>0 wake after sleep n-1
	cancelled bool
	fired     bool
}

type refSched struct {
	now Time
	seq uint64
	evs []*refEv
}

func (s *refSched) push(when Time, id, step int) *refEv {
	if when < s.now {
		when = s.now
	}
	ev := &refEv{when: when, seq: s.seq, id: id, step: step}
	s.seq++
	s.evs = append(s.evs, ev)
	return ev
}

func (s *refSched) pop() *refEv {
	best := -1
	for i, ev := range s.evs {
		if best < 0 || ev.when < s.evs[best].when ||
			(ev.when == s.evs[best].when && ev.seq < s.evs[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	ev := s.evs[best]
	s.evs = append(s.evs[:best], s.evs[best+1:]...)
	return ev
}

// --- shared program ---

const (
	opAt = iota
	opAfter
	opAtTimer
	opSpawn
	opKinds
)

type childSpec struct {
	kind  int
	delta Time
	steps []Time // spawn: sleep durations between logged wakes
}

type evProgram struct {
	children   []childSpec
	cancelPick int64 // >=0: cancel the (pick % created)-th timer after firing
}

// genDelta spreads offsets across every queue regime: same-tick ties,
// level-0 slots, each higher wheel level, and far-heap region hops.
func genDelta(r *Rand) Time {
	switch r.Int63n(7) {
	case 0:
		return 0
	case 1:
		return r.Int63n(4)
	case 2:
		return r.Int63n(1 << 6)
	case 3:
		return r.Int63n(1 << 12)
	case 4:
		return r.Int63n(1 << 18)
	case 5:
		return r.Int63n(1 << 24)
	default:
		return r.Int63n(1 << 26)
	}
}

func genPrograms(seed uint64, n int) []evProgram {
	r := NewRand(seed)
	progs := make([]evProgram, n)
	for i := range progs {
		nc := int(r.Int63n(3))
		for c := 0; c < nc; c++ {
			spec := childSpec{kind: int(r.Int63n(opKinds)), delta: genDelta(r)}
			if spec.kind == opSpawn {
				for s := int64(0); s < r.Int63n(3); s++ {
					spec.steps = append(spec.steps, genDelta(r))
				}
			}
			progs[i].children = append(progs[i].children, spec)
		}
		if r.Int63n(100) < 30 {
			progs[i].cancelPick = r.Int63n(1 << 30)
		} else {
			progs[i].cancelPick = -1
		}
	}
	return progs
}

// --- engine side ---

type engSide struct {
	eng    *Engine
	progs  []evProgram
	steps  map[int][]Time
	timers []Timer
	log    []string
	nextID int
	budget int
}

func (h *engSide) create(c childSpec) {
	id := h.nextID
	h.nextID++
	now := h.eng.Now()
	switch c.kind {
	case opAt:
		h.eng.At(now+c.delta, func() { h.fire(id) })
	case opAfter:
		h.eng.After(c.delta, func() { h.fire(id) })
	case opAtTimer:
		h.timers = append(h.timers, h.eng.AtTimer(now+c.delta, func() { h.fire(id) }))
	case opSpawn:
		h.steps[id] = c.steps
		h.eng.SpawnAt(now+c.delta, fmt.Sprintf("w%d", id), func(t *Thread) {
			h.fire(id)
			for i, d := range h.steps[id] {
				t.Sleep(d)
				h.log = append(h.log, fmt.Sprintf("%d.%d@%d", id, i, t.Now()))
			}
		})
	}
}

func (h *engSide) fire(id int) {
	h.log = append(h.log, fmt.Sprintf("%d@%d", id, h.eng.Now()))
	p := h.progs[id%len(h.progs)]
	for _, c := range p.children {
		if h.budget <= 0 {
			break
		}
		h.budget--
		h.create(c)
	}
	if p.cancelPick >= 0 && len(h.timers) > 0 {
		h.timers[int(p.cancelPick)%len(h.timers)].Cancel()
	}
}

// --- model side ---

type modelSide struct {
	sched  refSched
	events uint64 // events fired, thread starts and wakes included
	progs  []evProgram
	steps  map[int][]Time
	timers []*refEv
	log    []string
	nextID int
	budget int
}

func (m *modelSide) create(c childSpec) {
	id := m.nextID
	m.nextID++
	switch c.kind {
	case opAt, opAfter:
		m.sched.push(m.sched.now+c.delta, id, -1)
	case opAtTimer:
		m.timers = append(m.timers, m.sched.push(m.sched.now+c.delta, id, -1))
	case opSpawn:
		m.steps[id] = c.steps
		m.sched.push(m.sched.now+c.delta, id, 0)
	}
}

func (m *modelSide) fire(id int) {
	m.log = append(m.log, fmt.Sprintf("%d@%d", id, m.sched.now))
	p := m.progs[id%len(m.progs)]
	for _, c := range p.children {
		if m.budget <= 0 {
			break
		}
		m.budget--
		m.create(c)
	}
	if p.cancelPick >= 0 && len(m.timers) > 0 {
		tm := m.timers[int(p.cancelPick)%len(m.timers)]
		if !tm.fired {
			tm.cancelled = true
		}
	}
}

func (m *modelSide) run(t *testing.T) {
	for {
		ev := m.sched.pop()
		if ev == nil {
			return
		}
		if ev.cancelled {
			continue
		}
		if ev.when < m.sched.now {
			t.Fatalf("model time went backwards: %d < %d", ev.when, m.sched.now)
		}
		ev.fired = true
		m.events++
		m.sched.now = ev.when
		switch {
		case ev.step < 0:
			m.fire(ev.id)
		case ev.step == 0:
			// Spawned thread starts: runs its program, then its first
			// Sleep schedules the next wake.
			m.fire(ev.id)
			if len(m.steps[ev.id]) > 0 {
				m.sched.push(m.sched.now+m.steps[ev.id][0], ev.id, 1)
			}
		default:
			m.log = append(m.log, fmt.Sprintf("%d.%d@%d", ev.id, ev.step-1, m.sched.now))
			if steps := m.steps[ev.id]; ev.step < len(steps) {
				m.sched.push(m.sched.now+steps[ev.step], ev.id, ev.step+1)
			}
		}
	}
}

// checkSchedulerMatchesReference runs the same random program through the
// real engine and the reference scheduler and requires identical logs and
// event counts. The reference has no inline wakes: each of its sleeps is
// a queued event, so a thread's wake the engine ran in place must still
// be counted and logged exactly as the reference fired it.
func checkSchedulerMatchesReference(t *testing.T, seed uint64, budget int) {
	t.Helper()
	progs := genPrograms(seed, 97)

	eng := NewEngine(seed)
	e := &engSide{eng: eng, progs: progs, steps: map[int][]Time{}, budget: budget}
	m := &modelSide{progs: progs, steps: map[int][]Time{}, budget: budget}

	// Identical roots on both sides (a fresh rand stream per side would
	// not survive the engine consuming randomness elsewhere).
	rootRand := NewRand(seed + 1)
	for i := 0; i < 12; i++ {
		c := childSpec{kind: int(rootRand.Int63n(opKinds)), delta: genDelta(rootRand)}
		if c.kind == opSpawn {
			c.steps = []Time{genDelta(rootRand)}
		}
		e.budget--
		e.create(c)
		m.budget--
		m.create(c)
	}

	if err := eng.Run(); err != nil {
		t.Fatalf("seed %d: engine: %v", seed, err)
	}
	m.run(t)

	if len(e.log) != len(m.log) {
		t.Fatalf("seed %d: engine fired %d events, reference %d\nengine tail: %v\nmodel tail: %v",
			seed, len(e.log), len(m.log), tail(e.log), tail(m.log))
	}
	for i := range e.log {
		if e.log[i] != m.log[i] {
			t.Fatalf("seed %d: divergence at entry %d: engine %q, reference %q",
				seed, i, e.log[i], m.log[i])
		}
	}
	if eng.EventsRun() != m.events {
		t.Fatalf("seed %d: engine ran %d events, reference %d", seed, eng.EventsRun(), m.events)
	}
	if e.eng.q.live != 0 || e.eng.q.dead != 0 {
		t.Fatalf("seed %d: queue not drained after Run: live=%d dead=%d",
			seed, e.eng.q.live, e.eng.q.dead)
	}
}

func tail(s []string) []string {
	if len(s) > 5 {
		return s[len(s)-5:]
	}
	return s
}

func TestSchedulerMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkSchedulerMatchesReference(t, seed, 2500)
		})
	}
}

// FuzzSchedulerMatchesReference lets the fuzzer hunt for interleavings the
// fixed seeds miss (go test runs the corpus; -fuzz explores further).
func FuzzSchedulerMatchesReference(f *testing.F) {
	f.Add(uint64(42))
	f.Add(uint64(1 << 33))
	f.Add(uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkSchedulerMatchesReference(t, seed, 600)
	})
}

// TestCancelHeavyQueueBounded is the regression test for the lazy-cancel
// leak: before compaction existed, every cancelled timer stayed reachable
// in the heap until its (possibly far-future) pop, so cancel-heavy
// workloads — e.g. the reliable transport cancelling one retransmit timer
// per ACK — accumulated unbounded dead events. Compaction must keep the
// dead population bounded by the live one (plus the constant floor).
func TestCancelHeavyQueueBounded(t *testing.T) {
	eng := NewEngine(1)
	fired := 0
	r := NewRand(7)
	var live []Timer
	for round := 0; round < 200; round++ {
		// Arm a batch of far-future timers, then cancel almost all of
		// them — the ACK-cancels-retransmit pattern.
		for i := 0; i < 100; i++ {
			live = append(live, eng.AtTimer(Time(1_000_000+round*10_000+i*7), func() { fired++ }))
		}
		for len(live) > 3 {
			k := int(r.Int63n(int64(len(live))))
			live[k].Cancel()
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if total := eng.q.len(); total > eng.q.live+compactMinDead {
			t.Fatalf("round %d: %d events queued for %d live — cancelled events leaking (dead=%d)",
				round, total, eng.q.live, eng.q.dead)
		}
	}
	remaining := eng.q.live
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != remaining {
		t.Fatalf("fired %d of %d surviving timers", fired, remaining)
	}
	if fired >= 200*100/2 {
		t.Fatalf("test defeated itself: %d timers survived cancellation", fired)
	}
}
