package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark around its calls into the program, or reconstructed from
// durations the program already reports (pass walls, syncanal.Timing,
// pscd's elapsed_ms); children never overlap each other and lie inside
// their parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an operation's root span
	Op     int    `json:"op"`     // operation (compile, lap, request) id
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// StartNs and EndNs are offsets from the tracer's start.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(op, parent int, name, layer string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))})
	return id
}

// addSeq records consecutive child spans of parent laid end to end from
// start, for phases whose durations are known but whose start times are
// not.
func (t *tracer) addSeq(op, parent int, start time.Time, phases []phase) {
	for _, p := range phases {
		end := start.Add(p.d)
		id := t.add(op, parent, p.name, p.layer, start, end)
		if len(p.children) > 0 {
			t.addSeq(op, id, start, p.children)
		}
		start = end
	}
}

// phase is a named duration for addSeq.
type phase struct {
	name, layer string
	d           time.Duration
	children    []phase
}

// selfTimes returns each layer's self time: the summed durations of its
// spans minus the parts their child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	childSum := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		childSum[s.Parent] += s.EndNs - s.StartNs
	}
	for _, s := range t.spans {
		out[s.Layer] += time.Duration(s.EndNs - s.StartNs - childSum[s.ID])
	}
	return out
}

// ops returns the number of distinct operations with spans.
func (t *tracer) ops() int {
	if t == nil {
		return 0
	}
	seen := map[int]bool{}
	for _, s := range t.spans {
		seen[s.Op] = true
	}
	return len(seen)
}

// setLayerMetrics reports each layer's self time per traced operation.
func (t *tracer) setLayerMetrics(r *result) {
	n := t.ops()
	if n == 0 {
		return
	}
	self := t.selfTimes()
	for _, l := range layers {
		r.values["layer."+l+".self_s"] = self[l].Seconds() / float64(n)
	}
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// setOverhead reports the tracing overhead of a traced run whose odd
// operations were traced and even ones were not: the two medians and
// their difference as a share of the untraced one.
func setOverhead(r *result, on, off []float64) {
	mOn, mOff := median(on), median(off)
	r.values["trace.op_ms_p50_on"] = mOn
	r.values["trace.op_ms_p50_off"] = mOff
	if mOff > 0 {
		r.values["trace.overhead_frac"] = (mOn - mOff) / mOff
	}
}
