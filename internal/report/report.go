// Package report renders experiment results as the aligned text tables and
// series the cmd tools and EXPERIMENTS.md use, mirroring the rows/columns
// of the paper's figures, and as the flat figure JSON of mpistorm -json.
//
// report is pure formatting with no simulation state; both the
// deterministic core and the driver shell use it (docs/ARCHITECTURE.md),
// and its output is part of the byte-identical determinism contract.
package report

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is a named line of a figure (e.g. "Mutex", "Ticket").
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Add appends a sample.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// Y returns the y value at x, or NaN-like zero and false when absent.
func (s *Series) Y(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Table is a figure's data: several series over a shared x axis.
type Table struct {
	ID     string    `json:"id"` // experiment id, e.g. "fig8a"
	Title  string    `json:"title"`
	XLabel string    `json:"x_label"`
	YLabel string    `json:"y_label"`
	Series []*Series `json:"series"`
}

// AddSeries creates (or returns the existing) series with the given name.
// A new series starts with an empty, non-nil Points, so its JSON form is
// [] even before the first sample.
func (t *Table) AddSeries(name string) *Series {
	for _, s := range t.Series {
		if s.Name == name {
			return s
		}
	}
	s := &Series{Name: name, Points: []Point{}}
	t.Series = append(t.Series, s)
	return s
}

// xs returns the sorted union of all x values.
func (t *Table) xs() []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range t.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s — %s\n", t.ID, t.Title)
	}
	if t.YLabel != "" {
		fmt.Fprintf(&b, "# y: %s\n", t.YLabel)
	}
	header := []string{t.XLabel}
	for _, s := range t.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range t.xs() {
		row := []string{formatNum(x)}
		for _, s := range t.Series {
			if y, ok := s.Y(x); ok {
				row = append(row, formatNum(y))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// formatNum renders a float compactly: integers without decimals, small
// values with three significant decimals.
func formatNum(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	a := v
	if a < 0 {
		a = -a
	}
	switch {
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// FigureSchema tags the figure JSON layout: the flat results schema of
// mpistorm -json and CI's BENCH trajectory.
const FigureSchema = "mpicontend/figure/v1"

// figure is a table's JSON form: the schema tag, then the table's fields.
type figure struct {
	Schema string `json:"schema"`
	*Table
}

// Marshal renders the table as indented deterministic figure JSON, schema
// first. The form is lossless: a Table unmarshalled from it formats byte
// for byte like t.
func (t *Table) Marshal() ([]byte, error) {
	return json.MarshalIndent(figure{Schema: FigureSchema, Table: t}, "", "  ")
}

// ValidateFigure checks that data parses as a figure with the current
// schema, an id, and at least one series.
func ValidateFigure(data []byte) error {
	f := figure{Table: &Table{}}
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("report: figure: %w", err)
	}
	if f.Schema != FigureSchema {
		return fmt.Errorf("report: figure: schema %q, want %q", f.Schema, FigureSchema)
	}
	if f.ID == "" {
		return fmt.Errorf("report: figure: missing id")
	}
	if len(f.Series) == 0 {
		return fmt.Errorf("report: figure %s: no series", f.ID)
	}
	return nil
}
