// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output, and prints each metric
// with its unit, ending with one JSON line:
//
//	perfbench -workload compile-acc8192|sim-fig12|serve-mix -seed N -seconds S -trace 0|1 -pscd PATH
//
// With -trace 0 the JSON holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics of a run in which every other operation is
// traced, and the spans are written under -trace-dir. perfbench/run.sh
// builds this command and pscd from source and runs it; README.md in this
// directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

const (
	// setupReps is how many times each workload sets up; setup_s is the
	// median.
	setupReps = 21
	// minOps is the fewest operations a closed-loop run measures, however
	// long they take, so that op_ms_p50 is always a median of at least
	// three samples.
	minOps = 3
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	pscd     string
	traceDir string
}

// more reports whether a closed-loop run that started at start and has
// measured n operations of median length med should start another: until
// it has minOps (in a traced run, traced and untraced ones alternate),
// then while one more is expected to end inside the window.
func (c config) more(start time.Time, n int, med time.Duration) bool {
	return n < minOps || time.Since(start)+med <= c.window
}

// setupsBefore returns how many set-ups a closed-loop run does right
// before operation op when it spreads setupReps set-ups evenly over its
// first over operations. Spread out, the set-ups sample the host's speed
// over the run, as the operations do. Done back to back, they sampled only
// the run's first fraction of a second, and setup_s swung by a quarter
// between runs.
func setupsBefore(op, over int) int {
	if op >= over {
		return 0
	}
	return (op+1)*setupReps/over - op*setupReps/over
}

func (c config) tracePath() string {
	return filepath.Join(c.traceDir, fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"compile-acc8192": runCompile,
	"sim-fig12":       runSim,
	"serve-mix":       runServe,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: compile-acc8192, sim-fig12 or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 0, "workload seed")
	flag.Float64Var(&seconds, "seconds", 35, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&cfg.pscd, "pscd", "", "pscd binary (serve-mix)")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/trace", "directory for span dumps of traced runs")
	flag.Parse()
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace != 0

	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	rep := makeReport(res, cfg.trace)
	printReport(cfg, res, rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

// makeReport selects the metrics of the run mode.
func makeReport(res *result, trace bool) report {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	rep := report{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := res.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return rep
}

// printReport prints the metrics for people, then the JSON line.
func printReport(cfg config, res *result, rep report) {
	mode := "end-to-end"
	defs := endToEnd
	if cfg.trace {
		mode, defs = "per-layer (traced)", perLayer
	}
	fmt.Printf("workload %s seed %d, %s metrics over %v\n", cfg.workload, cfg.seed, mode, cfg.window)
	for _, d := range defs {
		fmt.Printf("  %-34s %14.6g %s\n", d.Name, rep.Metrics[d.Name].Value, d.Unit)
	}
	ratio := 0.0
	if res.attempted > 0 {
		ratio = float64(res.failed) / float64(res.attempted)
	}
	fmt.Printf("  %-34s %14.6g ratio (%d of %d operations)\n", "fail_ratio", ratio, res.failed, res.attempted)
	for _, e := range res.extra {
		fmt.Printf("  %s\n", e)
	}
	if cfg.trace {
		fmt.Printf("  tracing overhead: %.3f ms on the median operation (%.2f%%)\n",
			res.values["trace.op_ms_p50_on"]-res.values["trace.op_ms_p50_off"],
			100*res.values["trace.overhead_frac"])
	}
	for _, f := range res.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
