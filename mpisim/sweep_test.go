package mpisim

import (
	"sort"
	"testing"
)

// sweepIDs covers the no-point (table1), micro, and ablation families
// cheaply.
var sweepIDs = []string{"table1", "fig2b", "ablation-spin"}

// figureText flattens figures the way mpistorm prints them.
func figureText(figs []SweepResult) string {
	var s string
	for _, r := range figs {
		for _, f := range r.Figures {
			s += "== " + f.ID + " — " + f.Title + " ==\n" + f.Text + "\n" + f.Chart
		}
	}
	return s
}

// TestExperimentsSorted pins the -list contract: ids come back sorted and
// duplicate-free.
func TestExperimentsSorted(t *testing.T) {
	ids := Experiments()
	if len(ids) == 0 {
		t.Fatal("no experiments registered")
	}
	if !sort.StringsAreSorted(ids) {
		t.Errorf("Experiments() not sorted: %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			t.Errorf("duplicate experiment id %q", ids[i])
		}
	}
}

// TestSweepMatchesSerial is the facade-level determinism contract: a
// parallel Sweep must be byte-identical to the serial one-experiment
// entry point.
func TestSweepMatchesSerial(t *testing.T) {
	var serial []SweepResult
	for _, id := range sweepIDs {
		figs, err := RunExperiment(id, Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, SweepResult{ID: id, Figures: figs})
	}
	parallel, err := Sweep(SweepConfig{IDs: sweepIDs, Quick: true, Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, got := figureText(serial), figureText(parallel)
	if want == "" {
		t.Fatal("empty serial output")
	}
	if got != want {
		t.Errorf("Sweep(jobs=8) differs from serial entry point:\n--- serial ---\n%s--- sweep ---\n%s", want, got)
	}
}

// TestSweepFuncStreams checks streaming emission order and the default-ID
// path plumbing (without running every experiment: explicit ids only).
func TestSweepFuncStreams(t *testing.T) {
	var order []string
	err := SweepFunc(SweepConfig{IDs: sweepIDs, Quick: true, Jobs: 4},
		func(r SweepResult) error {
			order = append(order, r.ID)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(sweepIDs) {
		t.Fatalf("%d emissions, want %d", len(order), len(sweepIDs))
	}
	for i, id := range order {
		if id != sweepIDs[i] {
			t.Fatalf("emission order %v, want %v", order, sweepIDs)
		}
	}
}

// TestRunPoints checks the exposed point pool visits every index once at
// several worker counts.
func TestRunPoints(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		hits := make([]int32, 37)
		err := RunPoints(jobs, len(hits), func(i int) error {
			hits[i]++ // distinct indices: no two workers share a slot
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("jobs=%d: index %d ran %d times", jobs, i, h)
			}
		}
	}
}
