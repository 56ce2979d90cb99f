package workloads

import (
	"sort"
	"testing"

	"mpicontend/internal/machine"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
)

// lockWaits returns the wait spans of the named lock in grant order. A
// wait span runs from a thread's request to its grant, so the spans are
// the lock's grant stream as the telemetry plane records it.
func lockWaits(tel *telemetry.Recorder, name string) []telemetry.Span {
	id := -1
	for i, lp := range tel.Profile().Locks {
		if lp.Name == name {
			id = i
		}
	}
	var out []telemetry.Span
	for _, s := range tel.Spans() {
		if s.Kind == telemetry.SpanWait && int(s.Lock) == id {
			out = append(out, s)
		}
	}
	return out
}

// TestDebugGrantStream dissects the receiver-side grant stream under the
// mutex to understand arbitration composition, and cross-checks the
// telemetry plane against the grant observer: the contended grants
// counted from wait spans under the strict waiting-set rule must equal
// the fairness analyzer's sample count.
func TestDebugGrantStream(t *testing.T) {
	tel := telemetry.NewTrace()
	p := ThroughputParams{
		Lock: simlock.KindMutex, Threads: 8, MsgBytes: 64,
		Windows: 4, Binding: machine.Compact, Tel: tel,
	}
	r, err := Throughput(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rate %.0f", r.RateMsgsPerSec)
	grants := lockWaits(tel, "cs[r1]")
	total := len(grants)
	// Waiters at grant i: spans requested strictly before its grant time
	// and granted after it. Grants are in time order, so the i earlier
	// spans are exactly the ones already granted.
	starts := make([]int64, total)
	for i, g := range grants {
		starts[i] = g.Start
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	waiters := make([]int, total)
	for i, g := range grants {
		asked := sort.Search(total, func(k int) bool { return starts[k] >= g.End })
		waiters[i] = asked - i
		if g.Start < g.End {
			waiters[i]-- // the grantee itself
		}
	}
	contended, same, sameContended := 0, 0, 0
	waiterHist := map[int]int{}
	for i := 1; i < total; i++ {
		w := waiters[i-1]
		waiterHist[w]++
		if grants[i].Thread == grants[i-1].Thread {
			same++
		}
		if w > 0 {
			contended++
			if grants[i].Thread == grants[i-1].Thread {
				sameContended++
			}
		}
	}
	t.Logf("grants=%d contended=%d same=%d sameContended=%d", total, contended, same, sameContended)
	t.Logf("waiter histogram: %v", waiterHist)
	t.Logf("biasCore=%.2f biasSock=%.2f samples=%d", r.Arbitration.BiasFactorCore, r.Arbitration.BiasFactorSocket, r.Arbitration.Samples)
	fairSamples := 0
	for _, w := range waiters[1:] {
		if w > 0 {
			fairSamples++
		}
	}
	if fairSamples != r.Arbitration.Samples {
		t.Errorf("telemetry counts %d contended grants, the grant observer %d", fairSamples, r.Arbitration.Samples)
	}

	// Inter-grant gap histogram: who wins after a release? ~<200ns gaps
	// are spinner/steal wins, ~2500 gaps are futex-wake handoffs.
	gapHist := map[string]int{}
	for i := 1; i < total; i++ {
		gap := grants[i].End - grants[i-1].End
		var bucket string
		switch {
		case gap < 200:
			bucket = "<200"
		case gap < 600:
			bucket = "200-600"
		case gap < 1500:
			bucket = "600-1500"
		case gap < 3500:
			bucket = "1500-3500"
		default:
			bucket = ">3500"
		}
		gapHist[bucket]++
	}
	t.Logf("gap histogram: %v", gapHist)
	perThread := map[int32]int{}
	for _, g := range grants {
		perThread[g.Thread]++
	}
	t.Logf("grants per thread: %v", perThread)
}

// TestDebugRMAGrants dissects rank-0 lock traffic in the RMA benchmark.
func TestDebugRMAGrants(t *testing.T) {
	for _, k := range []simlock.Kind{simlock.KindMutex, simlock.KindTicket} {
		tel := telemetry.NewTrace()
		p := RMAParams{Lock: k, Op: OpPut, ElemBytes: 64, Ops: 8, Tel: tel}
		r, err := RMA(p)
		if err != nil {
			t.Fatal(err)
		}
		grants := lockWaits(tel, "cs[r0]")
		per := map[int32]int{}
		classes := map[uint8]int{}
		for _, g := range grants {
			per[g.Thread]++
			classes[g.Class]++
		}
		t.Logf("%v: rate=%.0f grants=%d perThread=%v high/low=%d/%d simNs=%d",
			k, r.RateElemPerSec, len(grants), per,
			classes[telemetry.ClassHigh], classes[telemetry.ClassLow], r.SimNs)
	}
}
