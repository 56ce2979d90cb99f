package workloads

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"mpicontend/internal/machine"
	"mpicontend/internal/simlock"
	"mpicontend/internal/telemetry"
)

// TestGrantObserverIsInert: attaching a fold-only recorder, which reads
// the §4.3/§4.4 analyses, changes no simulated result, for every lock
// kind.
func TestGrantObserverIsInert(t *testing.T) {
	for k := simlock.KindMutex; k.Valid(); k++ {
		t.Run(k.String(), func(t *testing.T) {
			p := tp(k, 4, 64)
			p.Windows = 2
			if k == simlock.KindNone {
				p.Threads = 1 // THREAD_SINGLE model: one runtime thread
			}
			off := runTP(t, p)
			p.Tel = telemetry.New()
			on := runTP(t, p)
			if on.Arbitration.Samples == 0 && k != simlock.KindNone {
				t.Fatal("observer attached but saw no contended grants")
			}
			if on.Messages != off.Messages || on.SimNs != off.SimNs ||
				on.RateMsgsPerSec != off.RateMsgsPerSec || on.UnexpectedHits != off.UnexpectedHits {
				t.Fatalf("observer changed the run:\ntraced   %+v\nuntraced %+v", on, off)
			}
		})
	}
}

// TestReusedRecorderReadsLatestRun: a recorder passed to two runs
// answers each with that run's own §4.3/§4.4 analyses, not the first
// run's lock of the same name.
func TestReusedRecorderReadsLatestRun(t *testing.T) {
	shared := telemetry.New()
	p := tp(simlock.KindMutex, 8, 64)
	p.Windows = 2
	p.Tel = shared
	runTP(t, p)
	p.Lock = simlock.KindTicket
	again := runTP(t, p)
	p.Tel = telemetry.New()
	fresh := runTP(t, p)
	if again.Arbitration != fresh.Arbitration {
		t.Fatalf("reused recorder read a stale lock:\nreused %+v\nfresh  %+v", again, fresh)
	}
}

// TestTimelineDigest pins the lock-ownership timeline that
// `biasprobe -timeline` prints (mutex, 8 threads, 64 B, seed 42): the
// rendering plus its monopolization metrics, hashed.
func TestTimelineDigest(t *testing.T) {
	tel := telemetry.NewTrace()
	_, err := Throughput(ThroughputParams{
		Lock: simlock.KindMutex, Binding: machine.Compact, Threads: 8,
		MsgBytes: 64, Windows: 10, Seed: 42, Tel: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	tl := tel.Timeline("cs[r1]", 4096)
	out := fmt.Sprintf("%.17g %d\n%s", tl.MaxShare(), tl.LongestRun(), tl.Render(72))
	const want = "eae896455f158e5f7e90cdae9fe0aa25595fad3ca410f6a76480bb7d4e37fc53"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != want {
		t.Fatalf("timeline digest %s, want %s:\n%s", got, want, out)
	}
}
