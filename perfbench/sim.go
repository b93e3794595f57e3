package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/machine"
)

// simCell is one compiled program of the Figure 12 grid.
type simCell struct {
	kernel apps.Kernel
	name   string // kernel name in metric names
	procs  int
	level  splitc.Level
	prog   *splitc.Program
}

// simGrid returns the cells every lap simulates: the five kernels at the
// three Figure 12 levels on 64 processors, plus EM3D oneway on 1024, whose
// event queue depth and barrier fan-in 64 processors do not reach.
func simGrid() []*simCell {
	var cells []*simCell
	for i, k := range apps.All() {
		for _, l := range []splitc.Level{splitc.LevelBaseline, splitc.LevelPipelined, splitc.LevelOneWay} {
			cells = append(cells, &simCell{kernel: k, name: simKernelNames[i], procs: 64, level: l})
		}
	}
	return append(cells, &simCell{kernel: *apps.ByName("EM3D"), name: "em3d-1024", procs: 1024,
		level: splitc.LevelOneWay})
}

// runSim measures laps over the Figure 12 grid with zero jitter, the
// paper's configuration. Set-up compiles the grid. The inputs are fixed;
// the seed is unused.
func runSim(cfg config) (*result, error) {
	r := newResult()
	cells := simGrid()
	var setups []time.Duration
	var setupTimes []map[string]float64
	var allocs []float64
	counts := map[string]float64{}
	// setUp compiles a fresh grid; the first one compiled is the one run.
	setUp := func() error {
		grid := simGrid()
		// A set-up between laps must not pay for their garbage.
		runtime.GC()
		m0 := readAlloc()
		t0 := time.Now()
		for _, c := range grid {
			p, err := splitc.Compile(c.kernel.Source(c.procs, 1), splitc.Options{Procs: c.procs, Level: c.level})
			if err != nil {
				return fmt.Errorf("%s/%s: compile: %w", c.name, c.level, err)
			}
			c.prog = p
		}
		setups = append(setups, time.Since(t0))
		allocs = append(allocs, (readAlloc()-m0)/(1<<20))
		times := map[string]float64{}
		counts = map[string]float64{}
		for _, c := range grid {
			for k, v := range compileTimes(c.prog) {
				times[k] += v
			}
			addCounts(counts, c.prog, c.level.String())
		}
		setupTimes = append(setupTimes, times)
		if cells[0].prog == nil {
			cells = grid
		}
		return nil
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	first := make([]*interp.Result, len(cells))
	var laps, on, off []float64
	runTimes := map[string][]float64{}
	start := time.Now()
	for lap := 0; cfg.more(start, lap, time.Duration(median(laps)*float64(time.Millisecond))); lap++ {
		for i := 0; i < setupsBefore(lap, setupReps); i++ {
			if err := setUp(); err != nil {
				return nil, err
			}
		}
		traced := cfg.trace && lap%2 == 1
		var lapDur time.Duration
		perKernel := map[string]time.Duration{}
		lapStart := time.Now()
		var phases []phase
		for i, c := range cells {
			t0 := time.Now()
			res, err := c.prog.Run(machine.CM5(c.procs), interp.RunOptions{})
			d := time.Since(t0)
			r.attempted++
			if err != nil {
				r.fail("%s/%s lap %d: %v", c.name, c.level, lap, err)
				continue
			}
			lapDur += d
			perKernel[c.name] += d
			if traced {
				phases = append(phases, phase{name: c.name + "/" + c.level.String(), layer: "interp", d: d})
			}
			if err := c.kernel.Check(res, c.procs, 1); err != nil {
				r.fail("%s/%s lap %d: validation: %v", c.name, c.level, lap, err)
				continue
			}
			if first[i] == nil {
				first[i] = res
			} else if res.Time != first[i].Time || res.Events != first[i].Events || res.Messages != first[i].Messages {
				r.fail("%s/%s lap %d: simulation differs from lap 0 under zero jitter", c.name, c.level, lap)
			}
		}
		if traced {
			id := tr.add(lap, 0, "lap", "bench", lapStart, lapStart.Add(lapDur))
			tr.addSeq(lap, id, lapStart, phases)
			on = append(on, ms(lapDur))
		} else {
			off = append(off, ms(lapDur))
		}
		laps = append(laps, ms(lapDur))
		for k, d := range perKernel {
			runTimes[k] = append(runTimes[k], d.Seconds())
		}
	}

	r.values["setup_s"] = medianDur(setups)
	for k, v := range medianMaps(setupTimes) {
		r.values[k] = v
	}
	for k, v := range counts {
		r.values[k] = v
	}
	r.values["alloc_mb"] = median(allocs)
	lapMed := median(laps)
	setClosedLoop(r, laps)
	r.values["peak_mem_mb"] = peakRSSMB(0)
	for k, xs := range runTimes {
		r.values["interp.run.s."+k] = median(xs)
	}
	norm := map[splitc.Level][]float64{}
	baseCycles := map[string]float64{}
	events := 0.0
	for i, c := range cells {
		res := first[i]
		if res == nil {
			continue
		}
		events += float64(res.Events)
		r.values["interp.messages"] += float64(res.Messages)
		r.values["sim.cycles."+c.name+"."+c.level.String()] = res.Time
		if c.level == splitc.LevelOneWay {
			busy := 0.0
			for _, s := range res.Stats {
				busy += s.Busy
			}
			r.values["interp.busy_frac."+c.name] = busy / (float64(c.procs) * res.Time)
		}
		// Cells run baseline first, so a kernel's baseline is known by the
		// time its other levels are normalized.
		if c.level == splitc.LevelBaseline {
			baseCycles[c.name] = res.Time
		} else if b := baseCycles[c.name]; b > 0 {
			norm[c.level] = append(norm[c.level], res.Time/b)
		}
	}
	r.values["interp.events"] = events
	if lapMed > 0 {
		r.values["interp.events_per_s"] = events / (lapMed / 1000)
	}
	r.values["sim.norm.oneway_geomean"] = geomean(norm[splitc.LevelOneWay])
	r.values["sim.norm.pipelined_geomean"] = geomean(norm[splitc.LevelPipelined])
	if cfg.trace {
		tr.setLayerMetrics(r)
		setOverhead(r, on, off)
		if err := tr.write(cfg.tracePath()); err != nil {
			return nil, err
		}
	}
	r.note("grid_s_p50 %.4f s (n=%d laps of %d cells)", lapMed/1000, len(laps), len(cells))
	r.note("oneway_norm_geomean %.4f ratio (Figure 12, simulated cycles / baseline)", r.values["sim.norm.oneway_geomean"])
	r.note("pipelined_norm_geomean %.4f ratio", r.values["sim.norm.pipelined_geomean"])
	return r, nil
}
