package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// pscdPath is the pscd binary TestMain builds for the serve-mix runs.
var pscdPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench")
	if err != nil {
		panic(err)
	}
	pscdPath = filepath.Join(dir, "pscd")
	out, err := exec.Command("go", "build", "-o", pscdPath, "repro/cmd/pscd").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("build pscd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestBenchmarkJSONMatchesRegistry holds BENCHMARK.json to the metrics the
// command prints.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bench.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, command prints %v", bench.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bench.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v, command prints %v", bench.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, command has %d", names, len(workloads))
	}
}

func TestRespellRoundTrip(t *testing.T) {
	src := "shared int S0 = 1;\nshared int A1[8];\nevent E0;\nlock L0;\nfunc main() { lock(L0); A1[MYPROC] = S0; unlock(L0); post(E0); wait(E0); }\n"
	a, back := respell(src, phaseRNG(1, 0))
	b, _ := respell(src, phaseRNG(2, 0))
	if a == src || a == b {
		t.Fatalf("respell did not rename: %q", a)
	}
	if got := unspell(a, back); got != src {
		t.Fatalf("unspell(respell(src)) = %q, want %q", got, src)
	}
}

// TestScheduleDeterministic: a seed fixes the serve-mix requests, their
// times and their programs; another seed changes them.
func TestScheduleDeterministic(t *testing.T) {
	draw := func(seed int64) []string {
		ps := newProgramSet()
		var out []string
		for _, req := range schedule(phaseRNG(seed, 1), ps, nominalRate, 2*time.Second) {
			out = append(out, req.due.String()+" "+serveKinds[req.kind]+"\n"+ps.progs[req.prog].src)
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	kinds := map[string]int{}
	for _, r := range a {
		kinds[strings.Fields(r)[1]]++
	}
	for _, k := range serveKinds {
		if kinds[k] == 0 {
			t.Errorf("schedule has no %s requests: %v", k, kinds)
		}
	}
}

// TestShortRuns runs every workload twice in short traced mode: the output
// checks must pass, and every count must repeat exactly.
func TestShortRuns(t *testing.T) {
	windows := map[string]time.Duration{
		"compile-acc8192": time.Millisecond, // minOps compiles, traced and untraced
		"sim-fig12":       time.Millisecond,
		"serve-mix":       2 * time.Second,
	}
	for name, window := range windows {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 3, window: window, trace: true,
				pscd: pscdPath, traceDir: t.TempDir()}
			var runs []*result
			for i := 0; i < 2; i++ {
				res, err := workloads[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Fatalf("run %d: %d of %d operations failed: %v", i, res.failed, res.attempted, res.failures)
				}
				runs = append(runs, res)
			}
			for _, d := range perLayer {
				deterministic := d.Unit == "count" || d.Unit == "cycles" || strings.HasPrefix(d.Name, "sim.norm.")
				if deterministic && runs[0].values[d.Name] != runs[1].values[d.Name] {
					t.Errorf("%s: %v then %v", d.Name, runs[0].values[d.Name], runs[1].values[d.Name])
				}
			}
			if _, err := os.Stat(cfg.tracePath()); err != nil {
				t.Errorf("no span dump: %v", err)
			}
			for _, d := range endToEnd {
				if _, ok := runs[0].values[d.Name]; !ok {
					t.Errorf("end-to-end metric %s not measured", d.Name)
				}
			}
		})
	}
}
