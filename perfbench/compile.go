package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"time"

	"repro"
	"repro/internal/delay"
	"repro/internal/pass"
	"repro/internal/progen"
)

// The compile workload compiles the acc8192 scale tier. Its |R| and |D|
// are pinned by internal/syncanal's tier tests; every compile must
// reproduce them.
const (
	compileTier = "acc8192"
	pinnedR     = 32707937
	pinnedD     = 20893293
)

var (
	// sharedIdent matches the shared scalars, arrays, events and locks of
	// a progen program (S0, A1, E2, L0, ...); no local or keyword does.
	sharedIdent = regexp.MustCompile(`\b[SAEL][0-9]+\b`)
	// respelledIdent matches the names respell gives them.
	respelledIdent = regexp.MustCompile(`\bx[0-9a-f]{8}\b`)
)

// respell renames every shared symbol of a progen program to a random
// identifier drawn from rng and returns the new source with the map back
// to the original names. The respelled program has the pinned tier's
// structure, so its analysis does the same work and reaches the same
// sizes, but each compile sees source text it has never seen before.
func respell(src string, rng *rand.Rand) (string, map[string]string) {
	fwd := map[string]string{}
	back := map[string]string{}
	out := sharedIdent.ReplaceAllStringFunc(src, func(name string) string {
		if r, ok := fwd[name]; ok {
			return r
		}
		for {
			r := fmt.Sprintf("x%08x", rng.Uint32())
			if _, taken := back[r]; !taken {
				fwd[name], back[r] = r, name
				return r
			}
		}
	})
	return out, back
}

// unspell maps respelled names in text back to the originals.
func unspell(text string, back map[string]string) string {
	return respelledIdent.ReplaceAllStringFunc(text, func(name string) string {
		if orig, ok := back[name]; ok {
			return orig
		}
		return name
	})
}

// subset reports whether every pair of a is in b.
func subset(a, b *delay.Set) bool {
	n := len(a.Fn.Accesses)
	if a.TargetRow(0) != nil && b.TargetRow(0) != nil {
		for t := 0; t < n; t++ {
			rb := b.TargetRow(t)
			for i, w := range a.TargetRow(t) {
				if w&^rb[i] != 0 {
					return false
				}
			}
		}
		return true
	}
	for _, p := range a.Pairs() {
		if !b.Has(p.A, p.B) {
			return false
		}
	}
	return true
}

// runCompile measures full oneway compiles of the acc8192 tier, each of a
// freshly respelled copy drawn from the seed. Set-up generates the tier's
// source.
func runCompile(cfg config) (*result, error) {
	tier, ok := progen.FindScaleTier(compileTier)
	if !ok {
		return nil, fmt.Errorf("scale tier %s not found", compileTier)
	}
	r := newResult()
	var src string
	var setups []time.Duration
	setUp := func() {
		// A set-up between compiles must not pay for their garbage.
		runtime.GC()
		t0 := time.Now()
		src = progen.Generate(tier.Seed, tier.Opts)
		setups = append(setups, time.Since(t0))
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	opts := splitc.Options{Procs: tier.Opts.Procs, Level: splitc.LevelOneWay}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var durs, on, off, allocs []float64
	var times []map[string]float64
	var counts map[string]float64
	var canon string
	start := time.Now()
	for op := 0; cfg.more(start, op, time.Duration(median(durs)*float64(time.Millisecond))); op++ {
		for i := 0; i < setupsBefore(op, minOps); i++ {
			setUp()
		}
		spelled, back := respell(src, rng)
		traced := cfg.trace && op%2 == 1
		var ends []time.Time
		pl := &pass.Pipeline{}
		var m0, m1 runtime.MemStats
		if traced {
			pl = observedPipeline(&ends)
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		prog, err := splitc.CompilePipeline(spelled, opts, pl)
		t1 := time.Now()
		r.attempted++
		if err != nil {
			r.fail("compile %d: %v", op, err)
			continue
		}
		d := ms(t1.Sub(t0))
		durs = append(durs, d)
		if traced {
			runtime.ReadMemStats(&m1)
			allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			id := tr.add(op, 0, "compile", "bench", t0, t1)
			addCompileSpans(tr, op, id, prog, ends)
			on = append(on, d)
		} else {
			off = append(off, d)
		}
		times = append(times, compileTimes(prog))

		a := prog.Analysis
		if got := a.R.Size(); got != pinnedR {
			r.fail("compile %d: |R| = %d, pinned %d", op, got, pinnedR)
		}
		if got := a.D.Size(); got != pinnedD {
			r.fail("compile %d: |D| = %d, pinned %d", op, got, pinnedD)
		}
		if !subset(a.D1, a.D) {
			r.fail("compile %d: D1 is not contained in D", op)
		}
		if !subset(a.D, a.Baseline) {
			r.fail("compile %d: D is not contained in the baseline delay set", op)
		}
		text := unspell(prog.TargetText(), back)
		if canon == "" {
			canon = text
		} else if text != canon {
			r.fail("compile %d: target text differs from the first compile's", op)
		}
		counts = map[string]float64{}
		addCounts(counts, prog, "oneway")
	}

	r.values["setup_s"] = medianDur(setups)
	setClosedLoop(r, durs)
	r.values["peak_mem_mb"] = peakRSSMB(0)
	for k, v := range medianMaps(times) {
		r.values[k] = v
	}
	for k, v := range counts {
		r.values[k] = v
	}
	r.values["alloc_mb"] = median(allocs)
	if cfg.trace {
		tr.setLayerMetrics(r)
		setOverhead(r, on, off)
		if err := tr.write(cfg.tracePath()); err != nil {
			return nil, err
		}
	}
	r.note("compile_s_p50 %.4f s (n=%d compiles of %d accesses)", median(durs)/1000, len(durs), int(counts["ir.accesses"]))
	return r, nil
}
