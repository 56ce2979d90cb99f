package main

//simcheck:allow-file nodeterm benchmark harness times host work; no wall-clock value reaches simulation state

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is the host cost of one timed pass.
type sample struct {
	wall, cpu     float64 // seconds
	allocs, bytes uint64
	units         int64
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timePass runs one pass after a collection, so every pass starts from the
// same heap state, and returns its cost with its output records.
func timePass(j job) (sample, []record, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuSeconds(), time.Now()
	recs, units, err := j.run(&env{})
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	runtime.ReadMemStats(&m1)
	return sample{wall: wall, cpu: cpu, allocs: m1.Mallocs - m0.Mallocs,
		bytes: m1.TotalAlloc - m0.TotalAlloc, units: units}, recs, err
}

// median of a non-empty slice (the mean of the middle two for even sizes).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat and returns the
// steal ticks and the total of all accounted ticks.
func cpuTicks() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the host's steal share over an interval.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{s, t, ok}
}

// share returns the fraction of CPU ticks stolen since start, or -1 when
// /proc/stat is unreadable.
func (m stealMeter) share() float64 {
	s, t, ok := cpuTicks()
	if !m.ok || !ok || t <= m.total {
		return -1
	}
	return float64(s-m.steal) / float64(t-m.total)
}
