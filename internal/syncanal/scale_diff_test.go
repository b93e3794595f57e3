package syncanal

import (
	"testing"

	"repro/internal/delay"
)

// TestAnalyzeMidsizeMatchesWholeEngine crosses the large-input activation
// thresholds of the regionized delay engine (dense-region dispatch at 256
// region members, the word-parallel restricted search at 512 accesses)
// inside the full pipeline, and requires pair-identical results against
// the retained whole-graph engine. The small-seed differential suite
// never reaches these sizes.
func TestAnalyzeMidsizeMatchesWholeEngine(t *testing.T) {
	fn := scalingProgram(t, 512)
	got := Analyze(fn, Options{})
	want := Analyze(fn, Options{Engine: delay.EngineWhole})
	for _, s := range []struct {
		label     string
		got, want *delay.Set
	}{
		{"baseline", got.Baseline, want.Baseline},
		{"D1", got.D1, want.D1},
		{"D", got.D, want.D},
	} {
		if s.got.Size() != s.want.Size() {
			t.Fatalf("%s: %d pairs vs whole-graph %d", s.label, s.got.Size(), s.want.Size())
		}
		for _, p := range s.want.Pairs() {
			if !s.got.Has(p.A, p.B) {
				t.Fatalf("%s: whole-graph pair [%d,%d] missing", s.label, p.A, p.B)
			}
		}
	}
	if got.R.Size() != want.R.Size() {
		t.Fatalf("|R| %d vs whole-graph %d", got.R.Size(), want.R.Size())
	}
}

// TestScaleTierAnalysisPinned pins the full-pipeline result shape on the
// deterministic acc2048 tier: region decomposition and the refined delay
// set size must not drift. A changed D here means an engine produced
// different pairs at scale — precisely the regression the differential
// suites cannot see below their size thresholds.
func TestScaleTierAnalysisPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second tier build in -short mode")
	}
	fn := tierProgram(t, "acc2048")
	res := Analyze(fn, Options{})
	if res.Regions != 3 || res.LargestRegion != 1700 {
		t.Fatalf("region decomposition drifted: %d regions, largest %d (want 3, 1700)",
			res.Regions, res.LargestRegion)
	}
	if n := res.R.Size(); n != 1821813 {
		t.Fatalf("|R| = %d, pinned 1821813", n)
	}
	if n := res.D.Size(); n != 1195464 {
		t.Fatalf("|D| = %d, pinned 1195464", n)
	}
}

// TestScaleTierDeterministicAcrossWorkers requires the full pipeline to
// give pair-identical R and D on the acc2048 tier at one worker and at
// eight. The tier is large enough that both fan-outs engage: the
// refinement rounds' consumer scan and the oriented pass's tree groups
// inside its 1,700-access region.
func TestScaleTierDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second tier build in -short mode")
	}
	defer func(w int) { delay.Workers = w }(delay.Workers)
	fn := tierProgram(t, "acc2048")
	delay.Workers = 1
	seq := Analyze(fn, Options{})
	delay.Workers = 8
	par := Analyze(fn, Options{})
	if seq.R.Size() != par.R.Size() || seq.D.Size() != par.D.Size() {
		t.Fatalf("|R|, |D| = %d, %d at 8 workers vs %d, %d at 1",
			par.R.Size(), par.D.Size(), seq.R.Size(), seq.D.Size())
	}
	if seq.D.TargetRow(0) == nil || par.D.TargetRow(0) == nil {
		t.Fatal("D is not dense; compare its pairs instead of its target rows")
	}
	for a := range fn.Accesses {
		if !wordsEqual(par.R.Row(a), seq.R.Row(a)) {
			t.Fatalf("R row %d differs at 8 workers", a)
		}
		if !wordsEqual(par.D.TargetRow(a), seq.D.TargetRow(a)) {
			t.Fatalf("D target row %d differs at 8 workers", a)
		}
	}
}
