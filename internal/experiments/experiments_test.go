package experiments

import (
	"strings"
	"testing"

	"mpicontend/internal/report"
)

func quick() Options { return Options{Quick: true} }

func runExp(t *testing.T, id string) []*report.Table {
	t.Helper()
	out, err := RunAll([]string{id}, quick(), 1)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	tables := out[0]
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	for _, tb := range tables {
		if len(tb.Series) == 0 {
			t.Fatalf("%s: table %s has no series", id, tb.ID)
		}
		out := tb.Format()
		if len(out) == 0 {
			t.Fatalf("%s: empty format", id)
		}
	}
	return tables
}

func seriesByName(t *testing.T, tb *report.Table, name string) *report.Series {
	t.Helper()
	for _, s := range tb.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("table %s lacks series %q", tb.ID, name)
	return nil
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig2a", "fig2b", "fig3a", "fig3c", "fig5a", "fig5b",
		"fig5c", "fig6b", "fig8a", "fig8b", "fig9a", "fig9b", "fig9c",
		"fig10a", "fig10b", "fig10c", "fig11a", "fig11b", "fig12b",
		"ablation-spin", "ablation-priomutex", "ablation-socketprio",
		"ablation-queuelocks", "ablation-granularity", "ablation-wakeup",
		"suite-patterns", "ablation-funneled", "chaos", "partitioned",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if _, err := Get("nonsense"); err == nil {
		t.Error("Get(nonsense) should fail")
	}
}

func TestTable1(t *testing.T) {
	runExp(t, "table1")
	txt := Table1Text()
	for _, want := range []string{"Nehalem", "2.6 GHz", "310"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Table 1 text missing %q:\n%s", want, txt)
		}
	}
}

func TestFig2aShape(t *testing.T) {
	tb := runExp(t, "fig2a")[0]
	one := seriesByName(t, tb, "1 tpn")
	eight := seriesByName(t, tb, "8 tpn")
	// Paper: rate degrades with thread count at small message sizes.
	y1, _ := one.Y(1)
	y8, _ := eight.Y(1)
	if y8 >= y1 {
		t.Errorf("8 tpn (%.0f) should be below 1 tpn (%.0f) at 1B", y8, y1)
	}
}

func TestFig3aShape(t *testing.T) {
	tb := runExp(t, "fig3a")[0]
	core := seriesByName(t, tb, "Core Level")
	for _, p := range core.Points {
		if p.Y < 1.2 {
			t.Errorf("core bias at %v bytes = %.2f, want > 1.2", p.X, p.Y)
		}
	}
}

func TestFig5aShape(t *testing.T) {
	tb := runExp(t, "fig5a")[0]
	m := seriesByName(t, tb, "Mutex")
	tk := seriesByName(t, tb, "Ticket")
	for _, p := range m.Points {
		if y, ok := tk.Y(p.X); ok && p.Y <= y {
			t.Errorf("at %v bytes mutex dangling %.1f <= ticket %.1f", p.X, p.Y, y)
		}
	}
}

func TestFig8aShape(t *testing.T) {
	tb := runExp(t, "fig8a")[0]
	single := seriesByName(t, tb, "Single")
	mutex := seriesByName(t, tb, "Mutex")
	ticket := seriesByName(t, tb, "Ticket")
	ys, _ := single.Y(1)
	ym, _ := mutex.Y(1)
	yt, _ := ticket.Y(1)
	if !(ys > yt && yt > ym) {
		t.Errorf("ordering at 1B: single %.0f, ticket %.0f, mutex %.0f "+
			"(want single > ticket > mutex)", ys, yt, ym)
	}
}

func TestFig8bShape(t *testing.T) {
	tb := runExp(t, "fig8b")[0]
	mutex := seriesByName(t, tb, "Mutex")
	ticket := seriesByName(t, tb, "Ticket")
	ym, _ := mutex.Y(1)
	yt, _ := ticket.Y(1)
	if yt >= ym {
		t.Errorf("ticket latency %.2f should be below mutex %.2f", yt, ym)
	}
}

func TestFig9aShape(t *testing.T) {
	tb := runExp(t, "fig9a")[0]
	mutex := seriesByName(t, tb, "Mutex")
	ticket := seriesByName(t, tb, "Ticket")
	better := 0
	for _, p := range ticket.Points {
		if y, ok := mutex.Y(p.X); ok && p.Y > y {
			better++
		}
	}
	if better == 0 {
		t.Error("ticket never beat mutex on RMA put")
	}
}

func TestFig10aShape(t *testing.T) {
	tb := runExp(t, "fig10a")[0]
	s := seriesByName(t, tb, "BFS")
	y1, _ := s.Y(1)
	y4, _ := s.Y(4)
	if y4 < 2*y1 {
		t.Errorf("BFS 4-thread MTEPS %.1f < 2x single %.1f", y4, y1)
	}
}

func TestFig11aShape(t *testing.T) {
	tb := runExp(t, "fig11a")[0]
	m := seriesByName(t, tb, "Mutex")
	tk := seriesByName(t, tb, "Ticket")
	// Smallest per-core problem: fair lock should win.
	x := m.Points[0].X
	ym, _ := m.Y(x)
	yt, _ := tk.Y(x)
	if yt <= ym {
		t.Errorf("small stencil: ticket %.3f <= mutex %.3f", yt, ym)
	}
}

func TestFig11bShape(t *testing.T) {
	tb := runExp(t, "fig11b")[0]
	comp := seriesByName(t, tb, "Computation")
	first := comp.Points[0].Y
	last := comp.Points[len(comp.Points)-1].Y
	if last <= first {
		t.Errorf("compute share should grow with size: %.1f%% -> %.1f%%", first, last)
	}
}

func TestFig12bShape(t *testing.T) {
	tb := runExp(t, "fig12b")[0]
	m := seriesByName(t, tb, "Mutex")
	tk := seriesByName(t, tb, "Ticket")
	for _, p := range m.Points {
		if y, ok := tk.Y(p.X); ok && p.Y <= y {
			t.Errorf("at %v cores mutex time %.4fs <= ticket %.4fs", p.X, p.Y, y)
		}
	}
}

func TestRemainingExperimentsRun(t *testing.T) {
	for _, id := range []string{"fig2b", "fig3c", "fig5b", "fig5c", "fig6b",
		"fig9b", "fig9c", "fig10b", "fig10c",
		"ablation-spin", "ablation-priomutex", "ablation-socketprio",
		"ablation-queuelocks", "ablation-granularity", "ablation-wakeup",
		"suite-patterns", "ablation-funneled"} {
		id := id
		t.Run(id, func(t *testing.T) {
			runExp(t, id)
		})
	}
}

func TestChaos(t *testing.T) {
	tables := runExp(t, "chaos")
	// Every lock survives every scenario with zero dangling requests and
	// nonzero goodput; the transport visibly retransmitted.
	var goodput, retx, dangling *report.Table
	for _, tb := range tables {
		switch tb.ID {
		case "chaos":
			goodput = tb
		case "chaos-retx":
			retx = tb
		case "chaos-dangling":
			dangling = tb
		}
	}
	if goodput == nil || retx == nil || dangling == nil {
		t.Fatalf("chaos tables missing: %v", tables)
	}
	for _, name := range []string{"Mutex", "Ticket", "Priority", "MCS"} {
		for _, p := range seriesByName(t, goodput, name).Points {
			if p.Y <= 0 {
				t.Errorf("%s scenario %v: zero goodput", name, p.X)
			}
		}
		var totalRetx float64
		for _, p := range seriesByName(t, retx, name).Points {
			totalRetx += p.Y
		}
		if totalRetx == 0 {
			t.Errorf("%s: no retransmissions under injected drops", name)
		}
		for _, p := range seriesByName(t, dangling, name).Points {
			if p.Y != 0 {
				t.Errorf("%s scenario %v: %v dangling requests", name, p.X, p.Y)
			}
		}
	}
}
