package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSeriesAddAndY(t *testing.T) {
	var s Series
	s.Add(1, 10)
	s.Add(2, 20)
	if y, ok := s.Y(2); !ok || y != 20 {
		t.Fatalf("Y(2) = %v %v", y, ok)
	}
	if _, ok := s.Y(3); ok {
		t.Fatal("Y(3) should be absent")
	}
}

func TestAddSeriesDedup(t *testing.T) {
	tb := &Table{}
	a := tb.AddSeries("x")
	b := tb.AddSeries("x")
	if a != b {
		t.Fatal("AddSeries should return the existing series")
	}
	if len(tb.Series) != 1 {
		t.Fatalf("series count %d", len(tb.Series))
	}
}

func TestFormatAlignmentAndContent(t *testing.T) {
	tb := &Table{ID: "figX", Title: "demo", XLabel: "bytes", YLabel: "rate"}
	m := tb.AddSeries("Mutex")
	m.Add(1, 100)
	m.Add(1024, 50.5)
	k := tb.AddSeries("Ticket")
	k.Add(1, 200)
	out := tb.Format()
	for _, want := range []string{"figX", "bytes", "Mutex", "Ticket", "100", "200", "50.5", "1024"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Missing point renders as "-".
	if !strings.Contains(out, "-") {
		t.Fatalf("missing-point marker absent:\n%s", out)
	}
	// Rows share the same column structure.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dataLines := lines[2:]
	width := len(dataLines[0])
	for _, l := range dataLines[1:] {
		if len(l) != width {
			t.Fatalf("ragged rows:\n%s", out)
		}
	}
}

func TestFormatSortsXs(t *testing.T) {
	tb := &Table{XLabel: "x"}
	s := tb.AddSeries("s")
	s.Add(100, 1)
	s.Add(1, 2)
	s.Add(50, 3)
	out := tb.Format()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var xs []string
	for _, l := range lines[1:] { // skip header
		xs = append(xs, strings.Fields(l)[0])
	}
	want := []string{"1", "50", "100"}
	for i, w := range want {
		if xs[i] != w {
			t.Fatalf("x order = %v, want %v:\n%s", xs, want, out)
		}
	}
}

func TestFormatNum(t *testing.T) {
	cases := map[float64]string{
		5:      "5",
		1024:   "1024",
		0.5:    "0.5000",
		3.25:   "3.25",
		150.75: "150.8",
	}
	for in, want := range cases {
		if got := formatNum(in); got != want {
			t.Errorf("formatNum(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestChartRendering(t *testing.T) {
	tb := &Table{ID: "figX", Title: "demo", XLabel: "bytes"}
	a := tb.AddSeries("Mutex")
	a.Add(1, 10)
	a.Add(64, 40)
	a.Add(1024, 90)
	b := tb.AddSeries("Ticket")
	b.Add(1, 20)
	b.Add(64, 80)
	out := tb.Chart()
	for _, want := range []string{"figX", "* = Mutex", "o = Ticket", "bytes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("chart lacks glyphs:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < chartHeight+3 {
		t.Fatalf("chart too short: %d lines", len(lines))
	}
}

func TestChartEmpty(t *testing.T) {
	tb := &Table{}
	if out := tb.Chart(); !strings.Contains(out, "empty") {
		t.Fatalf("empty chart = %q", out)
	}
}

func TestChartSinglePoint(t *testing.T) {
	tb := &Table{XLabel: "x"}
	tb.AddSeries("s").Add(5, 5)
	out := tb.Chart()
	if !strings.Contains(out, "*") {
		t.Fatalf("single point missing:\n%s", out)
	}
}

// TestFigureRoundtrip: the figure JSON is lossless, so a Table
// unmarshalled from it formats and charts byte for byte like the
// original, and it validates.
func TestFigureRoundtrip(t *testing.T) {
	tab := &Table{ID: "fig8a", Title: "Throughput", XLabel: "bytes", YLabel: "msgs/s"}
	s := tab.AddSeries("Mutex")
	s.Add(1, 1000.5)
	s.Add(64, 900.25)
	tab.AddSeries("Ticket").Add(1, 2000)
	tab.AddSeries("Empty")

	data, err := tab.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("{\n  \"schema\": \"mpicontend/figure/v1\",\n  \"id\": \"fig8a\",")) {
		t.Fatalf("figure JSON does not open with schema then id:\n%s", data)
	}
	if !bytes.Contains(data, []byte(`"points": []`)) {
		t.Fatalf("empty series does not marshal its points as []:\n%s", data)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got, want := back.Format(), tab.Format(); got != want {
		t.Fatalf("Format roundtrip diverged:\n got %q\nwant %q", got, want)
	}
	if got, want := back.Chart(), tab.Chart(); got != want {
		t.Fatalf("Chart roundtrip diverged")
	}
	if err := ValidateFigure(data); err != nil {
		t.Fatalf("ValidateFigure: %v", err)
	}
	for name, in := range map[string]string{
		"not json":     `{`,
		"wrong schema": `{"schema":"mpicontend/figure/v0","id":"x","series":[{"name":"s","points":[]}]}`,
		"no id":        `{"schema":"mpicontend/figure/v1","id":"","series":[{"name":"s","points":[]}]}`,
		"no series":    `{"schema":"mpicontend/figure/v1","id":"x","series":[]}`,
	} {
		if err := ValidateFigure([]byte(in)); err == nil {
			t.Errorf("%s: figure accepted", name)
		}
	}
}
