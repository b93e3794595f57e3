package main

import (
	"time"

	"repro"
	"repro/internal/delay"
	"repro/internal/pass"
)

// passLayer maps a pass to the module that does its work.
func passLayer(name string) string {
	switch name {
	case "parse":
		return "source"
	case "check":
		return "sem"
	case "build-ir":
		return "ir"
	case "conflict":
		return "conflict"
	case "cycle-detect":
		return "delay"
	case "sync-analysis":
		return "syncanal"
	default:
		return "codegen"
	}
}

// passMetric names the per-layer metric a pass's wall time feeds.
func passMetric(name string) string {
	if passLayer(name) == "codegen" {
		return "pass.codegen.s"
	}
	return "pass." + name + ".s"
}

// compileTimes returns one compile's pass walls and analysis phase times
// as per-layer metric values in seconds.
func compileTimes(prog *splitc.Program) map[string]float64 {
	m := map[string]float64{}
	for _, st := range prog.Passes {
		m[passMetric(st.Name)] += st.Wall.Seconds()
	}
	if a := prog.Analysis; a != nil {
		t := a.Timing
		m["syncanal.prepare.s"] = t.Prepare.Seconds()
		m["syncanal.baseline.s"] = t.Baseline.Seconds()
		m["syncanal.d1.s"] = t.D1.Seconds()
		m["syncanal.condense.s"] = t.Condense.Seconds()
		m["syncanal.precedence.s"] = t.Precedence.Seconds()
		m["syncanal.guards.s"] = t.Guards.Seconds()
		m["syncanal.cophase.s"] = t.CoPhase.Seconds()
		m["syncanal.orient.s"] = t.Orient.Seconds()
	}
	return m
}

// addCounts adds one compiled program's sizes to the count metrics: the
// IR, the delay sets and precedence relation of the analysis, and the
// static communication operations of the code emitted at level.
func addCounts(m map[string]float64, prog *splitc.Program, level string) {
	m["ir.accesses"] += float64(len(prog.Fn.Accesses))
	a := prog.Analysis
	size := func(s *delay.Set) float64 {
		if s == nil {
			return 0
		}
		return float64(s.Size())
	}
	m["delay.baseline_pairs"] += size(a.Baseline)
	m["delay.d1_pairs"] += size(a.D1)
	m["delay.d_pairs"] += size(a.D)
	m["delay.regions"] += float64(a.Regions)
	m["delay.largest_region"] += float64(a.LargestRegion)
	if a.R != nil {
		m["syncanal.r_pairs"] += float64(a.R.Size())
	}
	m["syncanal.r_classes"] += float64(a.RClasses)
	m["syncanal.r_class_splits"] += float64(a.RClassSplits)
	if m["syncanal.r_classes"] > 0 {
		m["syncanal.accesses_per_class"] = m["ir.accesses"] / m["syncanal.r_classes"]
	}
	ts := prog.Target.CollectStats()
	m["codegen.gets."+level] += float64(ts.Gets)
	m["codegen.puts."+level] += float64(ts.Puts)
	m["codegen.stores."+level] += float64(ts.Stores)
	m["codegen.syncs."+level] += float64(ts.Syncs)
}

// observedPipeline returns a pipeline whose observer appends the end time
// of every pass to *ends, so traced compiles can place each pass's wall
// time on the timeline.
func observedPipeline(ends *[]time.Time) *pass.Pipeline {
	return &pass.Pipeline{Observer: func(pass.Pass, *pass.Context) {
		*ends = append(*ends, time.Now())
	}}
}

// addCompileSpans records one compile's passes as children of parent,
// each ending when the observer saw it end, with the analysis phases of
// syncanal.Timing laid out inside the sync-analysis pass.
func addCompileSpans(tr *tracer, op, parent int, prog *splitc.Program, ends []time.Time) {
	for i, st := range prog.Passes {
		if i >= len(ends) {
			return
		}
		start := ends[i].Add(-st.Wall)
		id := tr.add(op, parent, st.Name, passLayer(st.Name), start, ends[i])
		if st.Name != "sync-analysis" || prog.Analysis == nil {
			continue
		}
		t := prog.Analysis.Timing
		tr.addSeq(op, id, start, []phase{
			{name: "d1", layer: "delay", d: t.D1},
			{name: "precedence", layer: "syncanal", d: t.Precedence + t.Condense,
				children: []phase{{name: "condense", layer: "syncanal", d: t.Condense}}},
			{name: "guards", layer: "syncanal", d: t.Guards},
			{name: "cophase", layer: "syncanal", d: t.CoPhase},
			{name: "orient", layer: "syncanal", d: t.Orient},
		})
	}
}

// medianMaps returns, for every key of any map, the median of its values
// across the maps (missing entries count as 0).
func medianMaps(ms []map[string]float64) map[string]float64 {
	keys := map[string]bool{}
	for _, m := range ms {
		for k := range m {
			keys[k] = true
		}
	}
	out := map[string]float64{}
	for k := range keys {
		xs := make([]float64, len(ms))
		for i, m := range ms {
			xs[i] = m[k]
		}
		out[k] = median(xs)
	}
	return out
}
