package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/quantile"
)

// metric is one named measurement with its unit, as printed and as written
// into the result object.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// metricSet keeps metrics in the order they were added, one per name.
type metricSet struct {
	list []metric
}

func (m *metricSet) add(name string, value float64, unit string) {
	for i := range m.list {
		if m.list[i].Name == name {
			m.list[i].Value, m.list[i].Unit = value, unit
			return
		}
	}
	m.list = append(m.list, metric{name, value, unit})
}

// value is the metric's value, and 0 when it was never added.
func (m *metricSet) value(name string) float64 {
	for _, x := range m.list {
		if x.Name == name {
			return x.Value
		}
	}
	return 0
}

func (m *metricSet) print(w io.Writer) {
	for _, x := range m.list {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", x.Name, x.Value, x.Unit)
	}
}

// ratio is a/b, and 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDuration(v []time.Duration) time.Duration {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}

// sample is one completed decision of the measured phase.
type sample struct {
	ops      int           // operations the decision carried
	latency  time.Duration // decision latency as the workload defines it
	busy     time.Duration // wall time of the whole step on the system under test
	finished time.Time     // when the step returned
	cpu      float64       // the process's CPU seconds when the step returned
	rssMB    float64       // the process's resident set when the step returned
}

// segmentStats are the end-to-end numbers of the measured phase, taken over
// its segments.
type segmentStats struct {
	opsPerS, p50ms, p90ms, cpuPerKop, peakRSSMB float64
	rates                                       []float64 // each segment's operations per second, in time order
	peaks                                       []float64 // each segment's peak resident set, in time order
}

// segments is how many equal-count stretches the measured phase is cut into.
const segments = 5

// segmentStats cuts the samples into five equal-count segments, computes
// throughput, latency percentiles and CPU per operation within each, and
// returns the second best of each over the segments. On a shared host the
// noise is one-sided and lasts seconds: a neighbour on the same core makes a
// stretch of the run up to a quarter slower and never faster. The second
// best of five ignores up to three such segments, where the median ignores
// two, and unlike the best it is not set by one lucky stretch. A segment's
// wall and CPU run from the end of the previous segment to the end of this
// one (closed loop).
func measureSegments(start time.Time, startCPU float64, samples []sample) segmentStats {
	k := min(segments, len(samples))
	var rate, p50, p90, cpu, peak []float64
	prev, prevCPU := start, startCPU
	for i := 0; i < k; i++ {
		seg := samples[i*len(samples)/k : (i+1)*len(samples)/k]
		ops := 0
		rss := 0.0
		lat := make([]time.Duration, len(seg))
		for j, s := range seg {
			ops += s.ops
			lat[j] = s.latency
			rss = max(rss, s.rssMB)
		}
		peak = append(peak, rss)
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		last := seg[len(seg)-1]
		rate = append(rate, ratio(float64(ops), last.finished.Sub(prev).Seconds()))
		cpu = append(cpu, 1000*ratio(last.cpu-prevCPU, float64(ops)))
		p50 = append(p50, ms(quantile.SortedDurations(lat, 0.50)))
		p90 = append(p90, ms(quantile.SortedDurations(lat, 0.90)))
		prev, prevCPU = last.finished, last.cpu
	}
	return segmentStats{
		opsPerS: secondBest(rate, true), p50ms: secondBest(p50, false),
		p90ms: secondBest(p90, false), cpuPerKop: secondBest(cpu, false),
		peakRSSMB: secondBest(peak, false),
		rates:     rate, peaks: peak,
	}
}

// secondBest returns the second highest (or second lowest) of v, and the
// only value when there is just one.
func secondBest(v []float64, higherIsBetter bool) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if higherIsBetter {
		return s[max(0, len(s)-2)]
	}
	return s[min(1, len(s)-1)]
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

// residentMB reads the process's resident set size from /proc/self/statm.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// calibrate times a fixed integer spin loop: a host-speed yardstick printed
// beside every result so files from different hosts and moments can be
// compared. It returns the fastest of five passes.
func calibrate() time.Duration {
	best := time.Duration(0)
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		runtime.KeepAlive(x) // so the loop is not optimised away
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// goStats is a snapshot of the Go runtime's allocation and GC counters.
type goStats struct {
	totalAlloc uint64
	pauseNs    uint64
	heapLive   uint64
	gcCPU      float64 // seconds of CPU the collector used
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	gs := goStats{
		totalAlloc: ms.TotalAlloc,
		pauseNs:    ms.PauseTotalNs,
		heapLive:   ms.HeapAlloc,
	}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gs.gcCPU = s[0].Value.Float64()
	}
	return gs
}
