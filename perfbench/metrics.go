package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported number and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the metrics a run prints with tracing off. Every workload
// reports every one of them; "op" is the workload's unit of work (one full
// compile, one lap over the simulation grid, one pscd request).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"goodput_per_s", "1/s"},
	{"peak_mem_mb", "MB"},
}

// Kernel and level names used in per-cell metric names.
var (
	simKernelNames = []string{"ocean", "em3d", "epithel", "cholesky", "health", "em3d-1024"}
	levelNames     = []string{"baseline", "pipelined", "oneway"}
	// layers are the modules spans are attributed to, plus the benchmark's
	// own harness ("bench") and request generator ("gen"), and the HTTP
	// path between client and server ("transport").
	layers = []string{"bench", "gen", "transport", "serve", "source", "sem", "ir",
		"conflict", "delay", "syncanal", "codegen", "interp", "scverify"}
	// frontPasses are the passes reported one by one; every later pass is
	// code generation and is reported as pass.codegen.s.
	frontPasses = []string{"parse", "check", "build-ir", "conflict", "cycle-detect", "sync-analysis"}
	serveKinds  = []string{"compile-hit", "compile-miss", "analyze", "verify"}
)

// perLayer lists the metrics a traced run prints. Every workload reports
// every one; a layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	var m []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			m = append(m, metricDef{n, unit})
		}
	}
	for _, p := range frontPasses {
		add("s", "pass."+p+".s")
	}
	add("s", "pass.codegen.s")
	add("count", "ir.accesses")
	add("s", "syncanal.prepare.s", "syncanal.baseline.s", "syncanal.d1.s", "syncanal.condense.s",
		"syncanal.precedence.s", "syncanal.guards.s", "syncanal.cophase.s", "syncanal.orient.s")
	add("count", "delay.baseline_pairs", "delay.d1_pairs", "delay.d_pairs", "delay.regions",
		"delay.largest_region", "syncanal.r_pairs", "syncanal.r_classes", "syncanal.r_class_splits")
	add("ratio", "syncanal.accesses_per_class")
	add("MB", "alloc_mb")
	for _, l := range levelNames {
		add("count", "codegen.gets."+l, "codegen.puts."+l, "codegen.stores."+l, "codegen.syncs."+l)
	}
	for _, k := range simKernelNames {
		add("s", "interp.run.s."+k)
	}
	add("count", "interp.events", "interp.messages")
	add("1/s", "interp.events_per_s")
	for _, k := range simKernelNames {
		add("ratio", "interp.busy_frac."+k)
	}
	for _, k := range simKernelNames[:5] {
		for _, l := range levelNames {
			add("cycles", "sim.cycles."+k+"."+l)
		}
	}
	add("cycles", "sim.cycles.em3d-1024.oneway")
	add("ratio", "sim.norm.oneway_geomean", "sim.norm.pipelined_geomean")
	add("ms", "scverify.verify_ms_p50")
	add("count", "scverify.runs")
	add("ratio", "scverify.exact_oracle_ratio")
	add("ms", "serve.client_ms_p50", "serve.server_ms_p50", "serve.transport_ms_p50", "serve.wait_ms_p99")
	for _, k := range serveKinds {
		add("ms", "serve."+k+".ms_p50", "serve."+k+".ms_p99")
	}
	add("ratio", "serve.hit_ratio")
	add("count", "serve.dedups", "serve.timeouts")
	add("bytes", "serve.store_bytes")
	add("ms", "gen.lag_ms_p99")
	for _, l := range layers {
		add("s", "layer."+l+".self_s")
	}
	// The tails of the operation latency: on a shared host they spread
	// beyond any bound an end-to-end metric may carry (see README.md).
	add("ms", "op_ms_p90", "op_ms_p99")
	add("ms", "trace.op_ms_p50_on", "trace.op_ms_p50_off")
	add("ratio", "trace.overhead_frac")
	return m
}()

// result is what one workload run measured and checked.
type result struct {
	attempted, failed int
	// values holds every metric the workload measured, end-to-end and
	// per-layer alike; the printer picks the set the run mode asks for.
	values map[string]float64
	// extra are workload-specific figures printed for people (with their
	// units) but not part of the machine-read result.
	extra []string
	// failures describes every failed output check.
	failures []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// note records one human-readable figure.
func (r *result) note(format string, args ...any) {
	r.extra = append(r.extra, fmt.Sprintf(format, args...))
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, or 0
// for no samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median returns the median of xs: the mean of the two middle samples
// when their number is even, so that two samples do not give the faster
// one. It returns 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianDur returns the median of ds in seconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// peakRSSMB reads the peak resident set size (VmHWM) of process pid from
// /proc; pid 0 means this process. It returns 0 where /proc is missing.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line[len("VmHWM:"):])
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// setClosedLoop reports the operation times (ms) of a closed loop, one
// operation at a time: their median and tails, and goodput as operations
// completed per second of operation time.
func setClosedLoop(r *result, durs []float64) {
	r.values["op_ms_p50"] = median(durs)
	r.values["op_ms_p90"] = percentile(durs, 0.9)
	r.values["op_ms_p99"] = percentile(durs, 0.99)
	total := 0.0
	for _, d := range durs {
		total += d
	}
	if total > 0 {
		r.values["goodput_per_s"] = float64(len(durs)) / (total / 1000)
	}
}

// readAlloc returns the bytes this process has allocated so far.
func readAlloc() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc)
}
