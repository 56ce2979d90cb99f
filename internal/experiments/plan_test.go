package experiments

import (
	"errors"
	"strings"
	"testing"

	"mpicontend/internal/report"
)

// formatTables renders tables the way mpistorm's stdout does, so byte
// comparisons here cover exactly what the serial-equivalence guarantee
// promises.
func formatTables(tables []*report.Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.Format())
		b.WriteString(t.Chart())
	}
	return b.String()
}

// TestPointsDeclare checks every registered experiment declares a stable
// point list: non-nil, and identical between two declare passes.
func TestPointsDeclare(t *testing.T) {
	for _, id := range IDs() {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		a, err := e.Points(quick())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b, err := e.Points(quick())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: declare pass disagreed on point count: %d vs %d", id, len(a), len(b))
		}
		if id != "table1" && len(a) == 0 {
			t.Errorf("%s: no points declared", id)
		}
		for i, pt := range a {
			if pt.Exp != id || pt.Seq != i {
				t.Fatalf("%s: point %d labeled (%s, %d)", id, i, pt.Exp, pt.Seq)
			}
		}
	}
}

// TestRenderCountMismatch checks Render rejects a result vector that does
// not line up with the declared points.
func TestRenderCountMismatch(t *testing.T) {
	e, err := Get("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := e.Points(quick())
	if err != nil {
		t.Fatal(err)
	}
	short := make([]Result, len(pts)-1)
	if _, err := e.Render(quick(), short); err == nil {
		t.Error("Render accepted a short result vector")
	}
	long := make([]Result, len(pts)+1)
	if _, err := e.Render(quick(), long); err == nil {
		t.Error("Render accepted a long result vector")
	}
}

// parallelIDs is the bundle the parallel-vs-serial tests sweep: cheap
// experiments covering the micro, kernel, ablation, and no-point (table1)
// families.
var parallelIDs = []string{"table1", "fig2b", "fig10a", "ablation-spin"}

// TestRunAllMatchesSerial is the determinism contract: rendering the same
// experiments at -jobs 1 and -jobs 8 must produce byte-identical tables
// and charts.
func TestRunAllMatchesSerial(t *testing.T) {
	serial, err := RunAll(parallelIDs, quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunAll(parallelIDs, quick(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range parallelIDs {
		want := formatTables(serial[i])
		got := formatTables(parallel[i])
		if want == "" {
			t.Fatalf("%s: empty serial output", id)
		}
		if got != want {
			t.Errorf("%s: -jobs 8 output differs from serial:\n--- serial ---\n%s--- jobs 8 ---\n%s",
				id, want, got)
		}
	}
}

// TestRunAllFuncOrder checks emissions arrive exactly once per
// experiment, in ids order, at any worker count.
func TestRunAllFuncOrder(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		var got []string
		err := RunAllFunc(parallelIDs, quick(), jobs,
			func(idx int, id string, tables []*report.Table) error {
				if id != parallelIDs[idx] {
					t.Fatalf("jobs=%d: emit(%d) = %s, want %s", jobs, idx, id, parallelIDs[idx])
				}
				got = append(got, id)
				return nil
			})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(got) != len(parallelIDs) {
			t.Fatalf("jobs=%d: %d emissions, want %d", jobs, len(got), len(parallelIDs))
		}
		for i, id := range got {
			if id != parallelIDs[i] {
				t.Fatalf("jobs=%d: emission order %v", jobs, got)
			}
		}
	}
}

// TestRunAllFuncFailingPoint checks that a failing point stops the
// emitted stream at the experiments before its own, at any worker count,
// and that RunAllFunc returns the point's error.
func TestRunAllFuncFailingPoint(t *testing.T) {
	const failID = "test-failing-point"
	errPoint := errors.New("point failed")
	register(failID, "one good point, one failing point",
		func(o Options, p *Plan) ([]*report.Table, error) {
			p.Value(func() (float64, error) { return 1, nil })
			p.Value(func() (float64, error) { return 0, errPoint })
			return []*report.Table{{ID: failID}}, nil
		})
	t.Cleanup(func() { delete(registry, failID) })

	ids := []string{"table1", "fig2b", failID, "fig10a"}
	for _, tc := range []struct {
		name string
		jobs int
	}{{"jobs=1", 1}, {"jobs=4", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			err := RunAllFunc(ids, quick(), tc.jobs,
				func(idx int, id string, tables []*report.Table) error {
					got = append(got, id)
					return nil
				})
			if !errors.Is(err, errPoint) {
				t.Errorf("error %v, want the failing point's", err)
			}
			if strings.Join(got, ",") != "table1,fig2b" {
				t.Errorf("emitted %v, want [table1 fig2b]", got)
			}
		})
	}
}

// TestRunAllUnknownID checks the registry error surfaces before any work
// runs.
func TestRunAllUnknownID(t *testing.T) {
	if _, err := RunAll([]string{"fig2b", "nonsense"}, quick(), 4); err == nil {
		t.Error("RunAll accepted an unknown experiment id")
	}
}

// TestPointRunIsolated re-runs a single declared point twice and expects
// bit-identical values — the property that makes fanning points across
// workers safe.
func TestPointRunIsolated(t *testing.T) {
	e, err := Get("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := e.Points(quick())
	if err != nil {
		t.Fatal(err)
	}
	first, err := pts[0].Run()
	if err != nil {
		t.Fatal(err)
	}
	again, err := pts[0].Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Values) != len(again.Values) {
		t.Fatalf("value count changed: %d vs %d", len(first.Values), len(again.Values))
	}
	for i := range first.Values {
		if first.Values[i] != again.Values[i] {
			t.Errorf("value %d: %v then %v", i, first.Values[i], again.Values[i])
		}
	}
}
