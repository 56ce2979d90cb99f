package workloads

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"mpicontend/internal/machine"
	"mpicontend/internal/simlock"
	"mpicontend/internal/trace"
)

// TestGrantObserverIsInert: attaching the §4.3/§4.4 grant observer to a
// rank changes no simulated result, for every lock kind.
func TestGrantObserverIsInert(t *testing.T) {
	for k := simlock.KindMutex; k.Valid(); k++ {
		t.Run(k.String(), func(t *testing.T) {
			p := tp(k, 4, 64)
			p.Windows = 2
			if k == simlock.KindNone {
				p.Threads = 1 // THREAD_SINGLE model: one runtime thread
			}
			off := runTP(t, p)
			p.TraceRank = 1
			on := runTP(t, p)
			if on.FairSamples == 0 && k != simlock.KindNone {
				t.Fatal("observer attached but saw no contended grants")
			}
			if on.Messages != off.Messages || on.SimNs != off.SimNs ||
				on.RateMsgsPerSec != off.RateMsgsPerSec || on.UnexpectedHits != off.UnexpectedHits {
				t.Fatalf("observer changed the run:\ntraced   %+v\nuntraced %+v", on, off)
			}
		})
	}
}

// TestTimelineDigest pins the lock-ownership timeline that
// `biasprobe -timeline` prints (mutex, 8 threads, 64 B, seed 42): the
// rendering plus its monopolization metrics, hashed.
func TestTimelineDigest(t *testing.T) {
	tl := &trace.TimelineRecorder{Cap: 4096}
	_, err := Throughput(ThroughputParams{
		Lock: simlock.KindMutex, Binding: machine.Compact, Threads: 8,
		MsgBytes: 64, Windows: 10, Seed: 42, TraceRank: 1, Timeline: tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := fmt.Sprintf("%.17g %d\n%s", tl.MaxShare(), tl.LongestRun(), tl.Render(72))
	const want = "eae896455f158e5f7e90cdae9fe0aa25595fad3ca410f6a76480bb7d4e37fc53"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != want {
		t.Fatalf("timeline digest %s, want %s:\n%s", got, want, out)
	}
}
