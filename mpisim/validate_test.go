package mpisim

import (
	"strings"
	"testing"
)

// TestOutOfRangeEnumsRejected feeds every experimental variable an
// out-of-range value through its public config and expects an error —
// never a panic, and never a silent fallback to the default. The error
// must name the value as unknown, not fail for an unrelated reason.
func TestOutOfRangeEnumsRejected(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
	}{
		{"Lock", func() error {
			_, err := Throughput(ThroughputConfig{Lock: Lock(99), Threads: 2, Windows: 1})
			return err
		}},
		{"Granularity", func() error {
			_, err := Throughput(ThroughputConfig{Granularity: Granularity(99), Threads: 2, Windows: 1})
			return err
		}},
		{"Binding", func() error {
			_, err := Latency(LatencyConfig{Binding: Binding(99), Threads: 1, Iters: 2})
			return err
		}},
		{"VCIPolicy", func() error {
			_, err := N2N(N2NConfig{Procs: 2, Threads: 1, Windows: 1, VCIs: 2, VCIPolicy: VCIPolicy(99)})
			return err
		}},
		{"ProgressMode", func() error {
			_, err := N2N(N2NConfig{Procs: 2, Threads: 1, Windows: 1, Progress: ProgressMode(99)})
			return err
		}},
		{"RMAOp", func() error {
			_, err := RMA(RMAConfig{Op: RMAOp(99), ElemBytes: 64, Ops: 1})
			return err
		}},
		{"PatternKind", func() error {
			_, err := Pattern(PatternConfig{Pattern: PatternKind(99), Threads: 1, Msgs: 1})
			return err
		}},
		{"RecoveryStrategy", func() error {
			_, err := Recovery(RecoveryConfig{Strategy: RecoveryStrategy(99), Iters: 2})
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s(99) panicked: %v", c.name, r)
				}
			}()
			err := c.run()
			if err == nil {
				t.Fatalf("%s(99) accepted", c.name)
			}
			if !strings.Contains(err.Error(), "unknown") {
				t.Fatalf("%s(99) failed for another reason: %v", c.name, err)
			}
		})
	}
}
