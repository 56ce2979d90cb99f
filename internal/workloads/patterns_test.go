package workloads

import (
	"testing"

	"mpicontend/internal/simlock"
)

func TestAllPatternsRun(t *testing.T) {
	for _, pat := range Patterns() {
		for _, k := range []simlock.Kind{simlock.KindMutex, simlock.KindTicket} {
			r, err := RunPattern(PatternParams{Lock: k, Pattern: pat,
				Threads: 4, Msgs: 16})
			if err != nil {
				t.Fatalf("%v/%v: %v", pat, k, err)
			}
			if r.Messages == 0 || r.RateMsgsPerSec <= 0 {
				t.Fatalf("%v/%v: degenerate result %+v", pat, k, r)
			}
		}
	}
}

func TestPatternNames(t *testing.T) {
	want := map[Pattern]string{
		PatternConcurrentPairs: "ConcurrentPairs",
		PatternFanIn:           "FanIn",
		PatternFanOut:          "FanOut",
		PatternComputeOverlap:  "ComputeOverlap",
	}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("%d.String() = %q", p, p.String())
		}
	}
}

// TestPatternFairLocksHelpConcurrentPairs: the battery's headline — fair
// arbitration speeds up independent concurrent streams.
func TestPatternFairLocksHelpConcurrentPairs(t *testing.T) {
	run := func(k simlock.Kind) float64 {
		r, err := RunPattern(PatternParams{Lock: k,
			Pattern: PatternConcurrentPairs, Threads: 8, Msgs: 32})
		if err != nil {
			t.Fatal(err)
		}
		return r.RateMsgsPerSec
	}
	m, tk := run(simlock.KindMutex), run(simlock.KindTicket)
	t.Logf("concurrent pairs: mutex %.0f ticket %.0f", m, tk)
	if tk <= m {
		t.Errorf("ticket (%.0f) should beat mutex (%.0f)", tk, m)
	}
}

// TestPatternOverlapBenefit: with computation overlapped, aggregate rates
// should exceed the pure ping-pong pattern's serialization penalty —
// sanity-check that Isend/Wait overlap works at all.
func TestPatternOverlapBenefit(t *testing.T) {
	r, err := RunPattern(PatternParams{Lock: simlock.KindTicket,
		Pattern: PatternComputeOverlap, Threads: 4, Msgs: 32})
	if err != nil {
		t.Fatal(err)
	}
	// 32 msgs x 2us compute = 64us serial compute per thread; if
	// communication fully hid behind it, per-thread time ~= 64us.
	// Allow 3x slack for runtime costs.
	perThread := r.SimNs
	if perThread > 3*32*2000 {
		t.Errorf("overlap pattern too slow: %dns for 64us of compute", perThread)
	}
}

func TestPatternDeterministic(t *testing.T) {
	p := PatternParams{Lock: simlock.KindMutex, Pattern: PatternFanIn,
		Threads: 4, Msgs: 16}
	a, err := RunPattern(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPattern(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.SimNs != b.SimNs {
		t.Fatalf("nondeterministic: %d vs %d", a.SimNs, b.SimNs)
	}
}
