// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a machine-readable JSON benchmark report. Each benchmark line
//
//	BenchmarkSimulatorEventRate-8   34   34200000 ns/op   1045.8 k_events/s   718840 B/op   5904 allocs/op
//
// becomes one entry keyed by its name (the -GOMAXPROCS suffix stripped)
// holding ns/op, B/op, allocs/op, and every extra b.ReportMetric value
// under its unit. `make bench` pipes the repository benchmarks through it
// to produce BENCH_5.json, which CI uploads as a regression-tracking
// artifact: allocs/op is deterministic, so any allocation regression on
// the simulator fast path shows as a diff between two CI runs' artifacts.
//
// benchjson is driver shell (docs/ARCHITECTURE.md): it only reshapes
// harness output and never touches simulation state.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// entry is one benchmark's parsed results.
type entry struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds b.ReportMetric values keyed by unit (the figure's
	// headline metric, e.g. "k_msgs/s").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type reportFile struct {
	// Go "go test -bench" provenance lines (goos/goarch/pkg/cpu).
	Meta map[string]string `json:"meta,omitempty"`
	// Benchmarks maps benchmark name to parsed results, sorted by key on
	// output for diff-stable artifacts.
	Benchmarks map[string]*entry `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output path (default stdout)")
	flag.Parse()

	rep := reportFile{Meta: map[string]string{}, Benchmarks: map[string]*entry{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "PASS") ||
			strings.HasPrefix(line, "ok ") || strings.HasPrefix(line, "---"):
			continue
		case strings.HasPrefix(line, "Benchmark"):
			if name, e, err := parseBenchLine(line); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: skipping %q: %v\n", line, err)
			} else {
				rep.Benchmarks[name] = e
			}
		default:
			// goos/goarch/pkg/cpu provenance lines.
			if k, v, ok := strings.Cut(line, ":"); ok && !strings.Contains(k, " ") {
				rep.Meta[k] = strings.TrimSpace(v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	// encoding/json sorts map keys, so two artifacts diff cleanly.
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *out == "" {
		fmt.Println(string(data))
		return
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
}

// parseBenchLine parses one "BenchmarkName-N  iters  v unit  v unit ..."
// result line.
func parseBenchLine(line string) (string, *entry, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return "", nil, fmt.Errorf("want 'name iters {value unit}...'")
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", nil, fmt.Errorf("iterations: %w", err)
	}
	e := &entry{Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, fmt.Errorf("value %q: %w", fields[i], err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			e.BytesPerOp = v
		case "allocs/op":
			e.AllocsPerOp = v
		default:
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = v
		}
	}
	return name, e, nil
}
