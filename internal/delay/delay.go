// Package delay implements cycle detection: the computation of delay sets
// in the style of Shasha & Snir, as reformulated in section 4 of the paper.
//
// A delay edge [a, b] (a before b in program order P) says the compiler and
// machine must not initiate b until a has completed. The sufficient delay
// set D contains every program-order pair that has a *back-path*: a path
// from b back to a in P ∪ C whose first and last edges are conflict edges.
// Enforcing D makes every weakly consistent execution sequentially
// consistent (Theorem 1 of the paper).
//
// Two search strategies are provided:
//
//   - the default polynomial search ignores the simple-path side conditions
//     of Definition 1. That over-approximates the set of back-paths, hence
//     over-approximates D — always correct, sometimes larger. This is
//     exactly the SPMD two-copy reduction of Krishnamurthy & Yelick
//     (LCPC 1994): conceptually every access has a local and a remote
//     copy, a back-path leaves the local copy of b on a conflict edge,
//     wanders the remote copies along program and conflict edges, and
//     re-enters the local copy of a on a conflict edge;
//   - the exact search enumerates simple paths (no repeated accesses) and
//     is exponential in the worst case; it is intended for small programs
//     and for the ablation comparing delay-set sizes.
//
// The polynomial search is batched: the mixed graph (program order plus
// directed conflict edges) is lowered to CSR adjacency once per Compute
// call, and for each pair target b one BFS from b's conflict-successor
// frontier yields a reachability bitset that answers every (a, b) query
// in O(n/64) words. The reference semantics exclude the pair endpoints as
// interior path nodes, so the batched engine cuts b's in-edges from the
// flowgraph and filters a with a per-source dominator tree ("y is
// reachable avoiding a" iff y is reached and a does not dominate y) —
// see graph.FlowDom. Queries with a pair-dependent Removed predicate
// cannot share reachability; they keep a per-pair search on reusable
// scratch, fanned across a bounded worker pool. The pre-batching
// implementation survives as the reference engine (Constraints.Reference)
// for differential tests.
//
// Synchronization-aware refinements enter through the Constraints hooks:
// directed conflict edges (orientation by the precedence relation R) and
// per-pair node removal (precedence and mutual-exclusion disqualification).
package delay

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/conflict"
	"repro/internal/graph"
	"repro/internal/ir"
)

// Pair is a delay edge: Pair{A, B} means access A must complete before
// access B is initiated; A precedes B in program order.
type Pair struct {
	A, B int
}

// Set is a computed delay set. Two storage modes share one interface:
//
//   - sparse: a pair map, the natural shape for hand-built and small sets;
//   - dense: one bitset row per target b (bit a set iff [a, b] is a delay
//     edge), the only shape that survives the Theta(n^2)-pair results of
//     programs with tens of thousands of accesses, and the shape the
//     regionized engine emits directly (it resolves all pairs of one
//     target b together).
//
// The sorted views used by codegen (Pairs, Successors) are served from a
// cached index built lazily — never on Add or Union, so chains of
// per-region merges don't pay O(size log size) each — and invalidated by
// mutation.
type Set struct {
	Fn     *ir.Fn
	pairs  map[Pair]bool    // sparse storage; nil in dense mode
	byB    *graph.BitMatrix // dense storage; nil in sparse mode
	size   int              // dense only; -1 when stale
	sorted []Pair           // sorted cache; nil when stale
	aOff   []int32          // sorted[aOff[a]:aOff[a+1]] are the pairs with A == a
}

// NewSet returns an empty sparse delay set for fn.
func NewSet(fn *ir.Fn) *Set {
	return &Set{Fn: fn, pairs: make(map[Pair]bool)}
}

// NewDenseSet returns an empty dense delay set for fn.
func NewDenseSet(fn *ir.Fn) *Set {
	return &Set{Fn: fn, byB: graph.NewBitMatrix(len(fn.Accesses))}
}

// Add inserts a delay edge.
func (s *Set) Add(a, b int) {
	if s.byB != nil {
		if !s.byB.Has(b, a) {
			s.byB.Set(b, a)
			s.size = -1
			s.sorted = nil
			s.aOff = nil
		}
		return
	}
	p := Pair{a, b}
	if !s.pairs[p] {
		s.pairs[p] = true
		s.sorted = nil
		s.aOff = nil
	}
}

// Has reports whether [a, b] is a delay edge.
func (s *Set) Has(a, b int) bool {
	if s.byB != nil {
		return s.byB.Has(b, a)
	}
	return s.pairs[Pair{a, b}]
}

// Size returns the number of delay edges.
func (s *Set) Size() int {
	if s.byB != nil {
		if s.size < 0 {
			s.size = s.byB.Count()
		}
		return s.size
	}
	return len(s.pairs)
}

// orTargetRow ORs a source-bitset row into target b's dense row: the
// engines' bulk emission path. The receiver must be dense.
func (s *Set) orTargetRow(b int, as []uint64) {
	row := s.byB.Row(b)
	for i, w := range as {
		row[i] |= w
	}
	s.size = -1
	s.sorted = nil
	s.aOff = nil
}

// targetRow returns target b's dense row (bit a set iff [a, b] present).
// The receiver must be dense; callers must not modify the row.
func (s *Set) targetRow(b int) []uint64 { return s.byB.Row(b) }

// TargetRow returns target b's dense row as a source-access bitset (bit a
// set iff [a, b] present), or nil when the set is sparse. Callers must not
// modify the row. This is the word-parallel consumption path: the
// precedence derivation filters whole target rows against dominator masks
// instead of iterating Pairs.
func (s *Set) TargetRow(b int) []uint64 {
	if s.byB == nil {
		return nil
	}
	return s.byB.Row(b)
}

// SourceMatrix returns the A-major transpose of a dense set (row a holds
// the targets of every [a, b]), or nil when the set is sparse. The matrix
// is freshly built on each call; the caller owns it.
func (s *Set) SourceMatrix() *graph.BitMatrix {
	if s.byB == nil {
		return nil
	}
	return s.byB.Transpose()
}

// index (re)builds the sorted cache and the per-A offset table.
func (s *Set) index() {
	if s.sorted != nil {
		return
	}
	var out []Pair
	if s.byB != nil {
		if s.Size() == 0 {
			return
		}
		out = make([]Pair, 0, s.Size())
		// Transposing to A-major rows makes the decode emit pairs already
		// in (A, B) order: no sort needed.
		byA := s.byB.Transpose()
		for a := 0; a < byA.N; a++ {
			row := byA.Row(a)
			for wi, w := range row {
				for ; w != 0; w &= w - 1 {
					b := wi<<6 + bits.TrailingZeros64(w)
					out = append(out, Pair{a, b})
				}
			}
		}
	} else {
		if len(s.pairs) == 0 {
			return
		}
		out = make([]Pair, 0, len(s.pairs))
		for p := range s.pairs {
			out = append(out, p)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].A != out[j].A {
				return out[i].A < out[j].A
			}
			return out[i].B < out[j].B
		})
	}
	s.sorted = out
	n := len(s.Fn.Accesses)
	s.aOff = make([]int32, n+1)
	k := 0
	for a := 0; a < n; a++ {
		for k < len(out) && out[k].A == a {
			k++
		}
		s.aOff[a+1] = int32(k)
	}
}

// Pairs returns the delay edges sorted for deterministic output. The
// slice is a shared cache; callers must not modify it.
func (s *Set) Pairs() []Pair {
	s.index()
	return s.sorted
}

// Successors returns the accesses that must wait for a's completion
// (the b's of every delay edge [a, b]), sorted.
func (s *Set) Successors(a int) []int {
	s.index()
	if s.aOff == nil || a < 0 || a+1 >= len(s.aOff) {
		return nil
	}
	seg := s.sorted[s.aOff[a]:s.aOff[a+1]]
	if len(seg) == 0 {
		return nil
	}
	out := make([]int, len(seg))
	for i, p := range seg {
		out[i] = p.B
	}
	return out
}

// Union returns a new set containing the edges of both sets. The result is
// dense when either input is dense (word-parallel row ORs); no sorted
// index is built — it stays lazy until Pairs or Successors is asked for.
func (s *Set) Union(o *Set) *Set {
	if s.byB != nil || o.byB != nil {
		u := NewDenseSet(s.Fn)
		for _, in := range []*Set{s, o} {
			if in.byB != nil {
				for i, w := range in.byB.Words() {
					u.byB.Words()[i] |= w
				}
			} else {
				for p := range in.pairs {
					u.byB.Set(p.B, p.A)
				}
			}
		}
		u.size = -1
		return u
	}
	u := NewSet(s.Fn)
	for p := range s.pairs {
		u.pairs[p] = true
	}
	for p := range o.pairs {
		u.pairs[p] = true
	}
	return u
}

// String renders the delay set for diagnostics.
func (s *Set) String() string {
	var sb strings.Builder
	for _, p := range s.Pairs() {
		fmt.Fprintf(&sb, "[%s -> %s]\n", s.Fn.Accesses[p.A], s.Fn.Accesses[p.B])
	}
	return sb.String()
}

// Constraints parameterizes the back-path search with synchronization
// information. The zero value (nil funcs) means: conflict edges usable in
// both directions, no nodes removed — plain Shasha & Snir.
type Constraints struct {
	// ConflictDir, when non-nil, restricts the direction in which a
	// conflict edge may be traversed: the edge x -> y is usable only if
	// ConflictDir(x, y). Orientation comes from the precedence relation
	// (step 5 of the section 5.1 algorithm).
	ConflictDir func(x, y int) bool
	// Removed, when non-nil, excludes access z from back-path searches for
	// the pair (a, b) (steps illustrated by Figure 6 and the lock rule of
	// section 5.3). Endpoints are never excluded.
	Removed func(a, b, z int) bool
	// PairFilter, when non-nil, restricts which program-order pairs are
	// even considered (used for the D1 computation, which looks only at
	// pairs involving a synchronization access).
	PairFilter func(a, b int) bool
	// Exact enables the exponential simple-path search.
	Exact bool
	// MaxExactNodes bounds the exact search; programs with more accesses
	// fall back to the polynomial search. Zero means 64.
	MaxExactNodes int
	// Reference forces the pre-batching per-pair search. It exists so the
	// differential tests can prove the batched engine returns identical
	// delay sets; production callers leave it false.
	Reference bool

	// Engine selects the polynomial search strategy. The zero value is the
	// regionized engine; EngineWhole forces the whole-graph batched search
	// (kept as a differential oracle and for the exact mode).
	Engine Engine
	// Endpoints, when non-nil, restricts the considered pairs structurally:
	// with EndpointsInclude a pair (a, b) is considered only when a or b is
	// listed, with EndpointsExclude only when neither is. It expresses the
	// same restriction as a PairFilter over a membership set, but in a form
	// the regionized engine can exploit (it flips per-target searches into
	// per-source searches when the listed side is small). All engines honor
	// it, so results stay comparable.
	Endpoints []int
	// EndpointsMode interprets Endpoints; the zero value is include.
	EndpointsMode EndpointsMode
	// DirRows, when non-nil, supplies the directed conflict adjacency as
	// row bitsets (bit (x, y) set iff the conflict edge x -> y is usable).
	// It must agree with ConflictDir when both are set. The regionized
	// engine consumes it word-parallel instead of calling ConflictDir per
	// edge; the whole-graph and reference engines keep using ConflictDir,
	// which preserves their independence as oracles. A *graph.ClassRows
	// backing shares one physical row per equivalence class, so callers
	// with class structure (AccessClass) never materialize n rows.
	DirRows graph.Rows
	// Comp, when non-nil, supplies a precomputed condensation of the mixed
	// graph (program order plus DirRows/ConflictDir edges) for the directed
	// regionized engine. Its components must be closed under the mixed
	// edges: any union of SCCs of a SUPERgraph is sound, because every
	// back-path of the actual graph stays inside one component of any
	// coarser closed partition. Callers that run several passes over
	// shrinking edge sets (syncanal's oriented passes) condense once and
	// share the result.
	Comp *graph.Condensation
	// RemovedCover, when non-nil alongside Removed, writes into scratch a
	// bitset covering every access the Removed predicate would exclude for
	// the pair (a, b) (extra bits are fine) and returns it. The regionized
	// engine skips the per-pair restricted re-search when no covered access
	// was reachable in the unrestricted search, which is what makes Removed
	// constraints affordable at tens of thousands of accesses.
	RemovedCover func(a, b int, scratch []uint64) []uint64
	// RemovedExact declares that RemovedCover is not merely a cover but
	// exactly the set Removed excludes for the pair (up to the endpoint
	// exemptions, which the engine applies itself). The regionized engine
	// then replaces the per-pair node-by-node restricted search with a
	// word-parallel one that seeds the visited set with the cover — the
	// denser the removal, the cheaper the search. Declaring exactness for
	// a strict over-approximation yields wrong results.
	RemovedExact bool
	// Cache, when non-nil, memoizes per-region results of the regionized
	// directed engine across Compute calls (see RegionCache). Ignored by
	// the other engines, by the symmetric (hub) path, and whenever the
	// constraints cannot be fingerprinted (an opaque PairFilter, or a
	// Removed predicate without NodeSig).
	Cache *RegionCache
	// NodeSig, when set alongside Cache and Removed, folds into s the
	// per-node constraint state behind Removed/RemovedCover: everything
	// those callbacks may consult about node x for pairs whose endpoints
	// and witnesses lie inside x's region. mask is the region's member
	// bitset and lof maps member global ids to dense local ids;
	// implementations must hash via local ids so that renumbering outside
	// the region cannot disturb the fingerprint.
	NodeSig func(x int, mask []uint64, lof []int32, s *Sig)
	// ClassSig is the class-condensed alternative to NodeSig, for callers
	// that also set AccessClass: called once per region (not once per
	// node), it folds in each member's constraint class and the class-level
	// relation behind Removed/RemovedCover, in the same local-id discipline
	// as NodeSig. When both are set, both are hashed. Must be safe for
	// concurrent calls from the engine's worker pool.
	ClassSig func(members []int32, mask []uint64, lof []int32, s *Sig)
	// AccessClass, when non-nil, partitions the accesses into constraint
	// classes the regionized engine may treat as interchangeable: two
	// accesses with equal class ids must have identical DirRows rows AND
	// columns, identical RemovedCover output in either pair position (for
	// any fixed partner), Removed answers that depend on each pair
	// endpoint only through its class, and identical conflict rows. The
	// dense region path then runs one reachability tree per target class
	// — with subtree-interval certificates deciding most pairs in O(1) —
	// instead of one per target, falling back to the exact per-pair
	// searches whenever a certificate cannot decide. Declaring
	// interchangeability that does not hold yields wrong results; the
	// per-access oracle (syncanal's Options.PerAccessR) exists to check it
	// differentially.
	AccessClass []int32
}

// Engine selects a polynomial back-path search strategy.
type Engine int

const (
	// EngineRegion is the default: searches decomposed by the strongly
	// connected components of the mixed graph (every delay pair and all of
	// its witness walks live inside one SCC), with the symmetric
	// unoriented case run on a hub-compressed conflict graph.
	EngineRegion Engine = iota
	// EngineWhole is the whole-graph batched engine.
	EngineWhole
)

// EndpointsMode interprets Constraints.Endpoints.
type EndpointsMode int

const (
	EndpointsInclude EndpointsMode = iota
	EndpointsExclude
)

// flattened folds the structural hints into the portable Constraints
// fields: Endpoints becomes a PairFilter conjunct and DirRows materializes
// a ConflictDir when none was given. The whole-graph and reference engines
// run on the flattened form.
func (c Constraints) flattened(n int) Constraints {
	if c.ConflictDir == nil && c.DirRows != nil {
		dm := c.DirRows
		c.ConflictDir = func(x, y int) bool { return graph.BitGet(dm.Row(x), y) }
	}
	if c.Endpoints != nil {
		em := make([]uint64, graph.WordsFor(n))
		for _, x := range c.Endpoints {
			graph.BitSet(em, x)
		}
		include := c.EndpointsMode == EndpointsInclude
		pf := c.PairFilter
		c.PairFilter = func(a, b int) bool {
			if pf != nil && !pf(a, b) {
				return false
			}
			in := graph.BitGet(em, a) || graph.BitGet(em, b)
			return in == include
		}
		c.Endpoints = nil
	}
	return c
}

// Workers bounds the fan-out of Compute's source and pair loops, and of
// the analyses built on them (syncanal's refinement rounds). Zero, the
// default, means one worker per available CPU (GOMAXPROCS); 1 forces
// sequential execution. Results land in index-addressed slots and are
// merged in order, so the computed set is identical at any worker count.
var Workers = 0

// WorkerCount returns the number of workers to run n independent items
// on under the Workers bound.
func WorkerCount(n int) int {
	w := Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ParallelFor runs fn(worker, i) for every i in [0, n) on nw workers.
// Workers claim indices from an atomic counter; fn must write results
// into index-addressed slots. The worker id lets fn reuse per-worker
// scratch.
func ParallelFor(n, nw int, fn func(worker, i int)) {
	if nw <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	next := int64(-1)
	var wg sync.WaitGroup
	for k := 0; k < nw; k++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(k)
	}
	wg.Wait()
}

// engine is the per-Compute lowered form of the mixed graph: CSR
// adjacency plus per-target conflict bitsets.
type engine struct {
	n     int
	w     int        // words per bitset row
	confl *graph.CSR // directed conflict adjacency: x -> usable partners
	mixed *graph.CSR // program order + directed conflicts
	tRows [][]uint64 // tRows[a] = {y : conflict edge y -> a usable}
}

func newEngine(ag *ir.AccessGraph, cs *conflict.Set, cdir func(x, y int) bool) *engine {
	n := cs.N()
	e := &engine{n: n, w: graph.WordsFor(n)}
	if cdir == nil {
		// Conflicts are symmetric and unrestricted: the target row of a is
		// exactly a's partner row, shared zero-copy from the conflict set.
		e.tRows = make([][]uint64, n)
		for a := 0; a < n; a++ {
			e.tRows[a] = cs.Row(a)
		}
		e.confl = graph.BuildCSR(n,
			func(u int) int { return len(cs.Partners(u)) },
			func(u int, out []int32) {
				for i, y := range cs.Partners(u) {
					out[i] = int32(y)
				}
			})
	} else {
		tm := graph.NewBitMatrix(n)
		e.tRows = make([][]uint64, n)
		for a := 0; a < n; a++ {
			for _, y := range cs.Partners(a) {
				if cdir(y, a) {
					tm.Set(a, y)
				}
			}
			e.tRows[a] = tm.Row(a)
		}
		e.confl = graph.BuildCSR(n,
			func(u int) int {
				d := 0
				for _, y := range cs.Partners(u) {
					if cdir(u, y) {
						d++
					}
				}
				return d
			},
			func(u int, out []int32) {
				i := 0
				for _, y := range cs.Partners(u) {
					if cdir(u, y) {
						out[i] = int32(y)
						i++
					}
				}
			})
	}
	adj := ag.G.Adj
	e.mixed = graph.BuildCSR(n,
		func(u int) int { return len(adj[u]) + len(e.confl.Out(u)) },
		func(u int, out []int32) {
			i := 0
			for _, v := range adj[u] {
				out[i] = int32(v)
				i++
			}
			i += copy(out[i:], e.confl.Out(u))
		})
	return e
}

// Compute runs the back-path search and returns the delay set.
//
// For each program-order pair (a, b), a back-path exists iff there is a
// path b -> ... -> a whose first and last edges are conflict edges (they
// may be the same single edge). Interior steps may use program-order edges
// or conflict edges (in their allowed direction).
//
// Three engines compute the same set: the regionized engine (default; see
// region.go), the whole-graph batched engine, and the pre-batching
// reference engine. The latter two are retained as differential oracles.
func Compute(ag *ir.AccessGraph, cs *conflict.Set, con Constraints) *Set {
	n := len(ag.Fn.Accesses)
	if con.Reference {
		return computeReference(ag, cs, con.flattened(n))
	}
	if con.Engine == EngineWhole || con.Exact {
		return computeWhole(ag, cs, con.flattened(n))
	}
	return computeRegion(ag, cs, con)
}

// computeWhole is the whole-graph batched engine: one unit of work per
// pair target b over the full mixed graph.
func computeWhole(ag *ir.AccessGraph, cs *conflict.Set, con Constraints) *Set {
	fn := ag.Fn
	out := NewSet(fn)
	n := len(fn.Accesses)
	if n == 0 {
		return out
	}
	e := newEngine(ag, cs, con.ConflictDir)

	// Bucket the program-order pairs by their second element b, so every
	// engine mode shares one unit of work (one reachability computation,
	// one scratch reuse window) per b.
	cnt := make([]int32, n+1)
	total := 0
	for a := 0; a < n; a++ {
		row := ag.ReachRow(a)
		for wi, w := range row {
			for ; w != 0; w &= w - 1 {
				b := wi<<6 + bits.TrailingZeros64(w)
				if con.PairFilter == nil || con.PairFilter(a, b) {
					cnt[b+1]++
					total++
				}
			}
		}
	}
	if total == 0 {
		return out
	}
	off := cnt
	for b := 0; b < n; b++ {
		off[b+1] += off[b]
	}
	aOf := make([]int32, total)
	pos := make([]int32, n)
	copy(pos, off[:n])
	for a := 0; a < n; a++ {
		row := ag.ReachRow(a)
		for wi, w := range row {
			for ; w != 0; w &= w - 1 {
				b := wi<<6 + bits.TrailingZeros64(w)
				if con.PairFilter == nil || con.PairFilter(a, b) {
					aOf[pos[b]] = int32(a)
					pos[b]++
				}
			}
		}
	}

	res := make([]bool, total)
	nw := WorkerCount(n)
	switch {
	case con.Exact && n <= con.maxExact():
		cdir := con.ConflictDir
		if cdir == nil {
			cdir = func(x, y int) bool { return true }
		}
		ParallelFor(n, nw, func(_, b int) {
			for k := off[b]; k < off[b+1]; k++ {
				a := int(aOf[k])
				removed := func(z int) bool {
					if z == a || z == b {
						return false
					}
					return con.Removed != nil && con.Removed(a, b, z)
				}
				res[k] = exactBackPath(ag, cs, cdir, a, b, removed)
			}
		})
	case con.Removed != nil:
		scratch := make([]*pairScratch, nw)
		ParallelFor(n, nw, func(w, b int) {
			if off[b] == off[b+1] {
				return
			}
			if scratch[w] == nil {
				scratch[w] = &pairScratch{mark: make([]int32, n)}
			}
			sc := scratch[w]
			for k := off[b]; k < off[b+1]; k++ {
				res[k] = e.pairSearch(sc, int(aOf[k]), b, con.Removed)
			}
		})
	default:
		fds := make([]*graph.FlowDom, nw)
		ParallelFor(n, nw, func(w, b int) {
			if off[b] == off[b+1] {
				return
			}
			if fds[w] == nil {
				fds[w] = graph.NewFlowDom(e.mixed)
			}
			e.source(fds[w], b, aOf[off[b]:off[b+1]], res[off[b]:off[b+1]])
		})
	}

	for b := 0; b < n; b++ {
		for k := off[b]; k < off[b+1]; k++ {
			if res[k] {
				out.Add(int(aOf[k]), b)
			}
		}
	}
	return out
}

// source answers every pair (a, b) for one b with one BFS: seeds are b's
// usable conflict successors, b's in-edges are cut (the reference search
// never re-enters b), and the per-pair exclusion of a is resolved by the
// dominator test. A query is positive iff
//   - the single conflict edge b -> a is usable (bit b of T(a)), or
//   - a's own usable self-conflict edge closes a path that reached a, or
//   - some y in T(a) was reached and a does not dominate y (so a path to
//     y avoids a entirely).
func (e *engine) source(fd *graph.FlowDom, b int, as []int32, res []bool) {
	seeds := e.confl.Out(b)
	if len(seeds) == 0 {
		return // no usable conflict edge leaves b: no back-path can start
	}
	fd.Reach(seeds, b)
	V := fd.VisitedRow()
	for k, a32 := range as {
		a := int(a32)
		ta := e.tRows[a]
		if graph.BitGet(ta, b) {
			res[k] = true
			continue
		}
		if !fd.Visited(a) {
			// a is untouched by the frontier: no path passes through it,
			// so plain word-parallel intersection is exact.
			res[k] = graph.AndAny(ta, V)
			continue
		}
		if graph.BitGet(ta, a) {
			res[k] = true
			continue
		}
		for wi := 0; wi < e.w && !res[k]; wi++ {
			m := ta[wi] & V[wi]
			for m != 0 {
				y := wi<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				if !fd.DomAncestor(a, y) {
					res[k] = true
					break
				}
			}
		}
	}
}

// pairScratch is the reusable state of one worker's per-pair searches.
type pairScratch struct {
	mark  []int32
	epoch int32
	stack []int32
}

// pairSearch is the per-pair polynomial search used when a pair-dependent
// Removed predicate prevents sharing reachability across pairs. It
// mirrors the reference search step for step, on CSR adjacency and
// epoch-stamped scratch instead of fresh allocations.
func (e *engine) pairSearch(sc *pairScratch, a, b int, rem func(a, b, z int) bool) bool {
	removed := func(z int) bool {
		if z == a || z == b {
			return false
		}
		return rem(a, b, z)
	}
	ta := e.tRows[a]
	if graph.BitGet(ta, b) {
		return true // single conflict edge b -> a
	}
	sc.epoch++
	sc.stack = sc.stack[:0]
	for _, x := range e.confl.Out(b) {
		xi := int(x)
		if removed(xi) {
			continue
		}
		if graph.BitGet(ta, xi) {
			return true
		}
		if xi == a {
			continue // reached a not via a final conflict edge; a is endpoint
		}
		if sc.mark[xi] != sc.epoch {
			sc.mark[xi] = sc.epoch
			sc.stack = append(sc.stack, x)
		}
	}
	for len(sc.stack) > 0 {
		u := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		for _, v := range e.mixed.Out(int(u)) {
			vi := int(v)
			if sc.mark[vi] == sc.epoch || removed(vi) {
				continue
			}
			if graph.BitGet(ta, vi) {
				return true
			}
			if vi == a || vi == b {
				continue
			}
			sc.mark[vi] = sc.epoch
			sc.stack = append(sc.stack, v)
		}
	}
	return false
}

func (c Constraints) maxExact() int {
	if c.MaxExactNodes > 0 {
		return c.MaxExactNodes
	}
	return 64
}

// ShashaSnir computes the plain Shasha & Snir delay set: no orientation, no
// removal, every program-order pair considered. This is the baseline the
// paper's Figure 12 compares against.
func ShashaSnir(ag *ir.AccessGraph, cs *conflict.Set) *Set {
	return Compute(ag, cs, Constraints{})
}

// ShashaSnirExact is ShashaSnir with the simple-path search.
func ShashaSnirExact(ag *ir.AccessGraph, cs *conflict.Set) *Set {
	return Compute(ag, cs, Constraints{Exact: true})
}
