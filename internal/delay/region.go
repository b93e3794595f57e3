package delay

import (
	"math/bits"

	"repro/internal/conflict"
	"repro/internal/graph"
	"repro/internal/ir"
)

// This file implements the regionized back-path engine, the default since
// the whole-graph batched engine stopped scaling past a few thousand
// accesses. It rests on one confinement fact:
//
//	A delay pair (a, b) needs a program-order path a -> b and a back-path
//	walk b -> a, both over mixed edges (program order plus usable conflict
//	edges). Concatenated they form a closed walk, so a, b, and every node
//	of every witness walk lie in one strongly connected component of the
//	directed mixed graph.
//
// Hence pairs spanning two SCCs are false with zero search, and searches
// for same-SCC pairs restricted to the induced subgraph are exact — for
// every constraint mode, because constraints only shrink the edge set the
// walks may use.
//
// Two sub-engines split the work:
//
//   - sccCompute handles directed conflict edges (orientation by the
//     precedence relation). There the mixed graph decomposes into many
//     small SCCs — essentially the barrier phases — and each region gets
//     its own local CSR, local FlowDom, and local per-pair re-searches
//     when a Removed predicate is present.
//
//   - hubCompute handles the symmetric unoriented case, where barrier
//     conflict edges glue the whole program into one giant SCC and
//     regionization is useless. Instead the Theta(n^2) conflict edges are
//     compressed through per-group hub nodes: accesses with the same
//     (kind, symbol, index shape) conflict with exactly the same
//     opponents, so one collector node per group receives its members and
//     one distributor node re-emits them, turning each group-pair clique
//     into two hub edges. The BFS per target then runs on ~2n + g^2 edges
//     instead of n^2, and per-group first-visit witnesses answer most
//     pair queries in O(1) before the dominator fallback.
type hubScratch struct {
	fd     *graph.FlowDom
	psc    *pairScratch
	seeds  []int32
	cand   []uint64
	y1, y2 []int32 // first/second visited member per group
	gep    []int32 // epoch stamps for y1/y2
	epoch  int32

	// Group-major fast path: uncut base sweep shared by every source of
	// one conflict group, plus per-group witness pools drawn from it.
	base    *graph.FlowDom
	pools   [][]int32
	poolBuf []int32

	// Class-condensed cell cache: the baseline verdict for (target b,
	// source a) depends on a only through a's conflict group and a's
	// position in the base first-visit tree, so fastSweep summarizes each
	// (b, source-group) cell once — witness count class plus entry-time
	// extremes of the witnesses surviving the subtree(b) screen — and
	// answers members with two interval comparisons. Stamps are bumped
	// per target.
	cellEp   []int32
	cellSt   []uint8
	cellMin  []int32
	cellMax  []int32
	cellTick int32
}

// computeRegion is the regionized engine entry point.
func computeRegion(ag *ir.AccessGraph, cs *conflict.Set, con Constraints) *Set {
	fn := ag.Fn
	n := len(fn.Accesses)
	out := NewDenseSet(fn)
	if n == 0 {
		return out
	}
	// Force the lazy program-order transpose before any worker fan-out;
	// its construction is not concurrency-safe.
	_ = ag.PredRow(0)
	if con.ConflictDir == nil && con.DirRows == nil {
		hubCompute(ag, cs, con, out)
	} else {
		sccCompute(ag, cs, con, out)
	}
	// Workers wrote rows directly; invalidate the derived caches once.
	out.size = -1
	out.sorted = nil
	out.aOff = nil
	return out
}

// endpointMask materializes Constraints.Endpoints as a bitset.
func endpointMask(con Constraints, w int) ([]uint64, int) {
	if con.Endpoints == nil {
		return nil, 0
	}
	em := make([]uint64, w)
	for _, x := range con.Endpoints {
		graph.BitSet(em, x)
	}
	c := 0
	for _, word := range em {
		c += bits.OnesCount64(word)
	}
	return em, c
}

// candidateRow fills cand with the considered sources a for target b:
// program-order predecessors, restricted by the endpoint mask. It reports
// whether b itself survives the endpoint restriction (a false return means
// no pair with this target is considered at all).
func candidateRow(ag *ir.AccessGraph, b int, em []uint64, mode EndpointsMode, cand []uint64) bool {
	copy(cand, ag.PredRow(b))
	if em == nil {
		return true
	}
	if mode == EndpointsExclude {
		if graph.BitGet(em, b) {
			return false
		}
		for i := range cand {
			cand[i] &^= em[i]
		}
		return true
	}
	if !graph.BitGet(em, b) {
		for i := range cand {
			cand[i] &= em[i]
		}
	}
	return true
}

// applyPairFilter drops candidate bits rejected by the opaque PairFilter.
// Production callers express restrictions through Endpoints instead; the
// per-bit calls here keep arbitrary test filters correct.
func applyPairFilter(filter func(a, b int) bool, b int, cand []uint64) {
	if filter == nil {
		return
	}
	for wi, w := range cand {
		for m := w; m != 0; m &= m - 1 {
			a := wi<<6 + bits.TrailingZeros64(m)
			if !filter(a, b) {
				cand[wi] &^= 1 << (uint(a) & 63)
			}
		}
	}
}

func anyWord(row []uint64) bool {
	for _, w := range row {
		if w != 0 {
			return true
		}
	}
	return false
}

// hubCompute answers every pair with symmetric unrestricted conflicts on
// the hub-compressed mixed graph. Node layout: accesses [0, n), collector
// C_g at n+g, distributor D_g at n+G+g; the real conflict edge x -> y is
// realized as x -> C_{g(x)} -> D_{g(y)} -> y, so reachability and
// reachability-avoiding-one-access coincide with the uncompressed graph.
func hubCompute(ag *ir.AccessGraph, cs *conflict.Set, con Constraints, out *Set) {
	n := cs.N()
	G := cs.NumGroups()
	w := graph.WordsFor(n)
	N := n + 2*G
	adj := ag.G.Adj

	groupOf := make([]int32, n)
	for a := 0; a < n; a++ {
		groupOf[a] = cs.GroupOf(a)
	}
	ga := make([][]int32, G)
	mem := make([][]int32, G)
	for g := 0; g < G; g++ {
		ga[g] = cs.GroupAdj(g)
		mask := cs.GroupMembers(g)
		for wi, word := range mask {
			for ; word != 0; word &= word - 1 {
				mem[g] = append(mem[g], int32(wi<<6+bits.TrailingZeros64(word)))
			}
		}
	}
	// Self-conflict bitset: bit a set iff the edge a -> a is usable.
	sc := make([]uint64, w)
	for a := 0; a < n; a++ {
		if cs.Conflicts(a, a) {
			graph.BitSet(sc, a)
		}
	}

	hub := graph.BuildCSR(N,
		func(u int) int {
			switch {
			case u < n:
				d := len(adj[u])
				if len(ga[groupOf[u]]) > 0 {
					d++
				}
				return d
			case u < n+G:
				return len(ga[u-n])
			default:
				return len(mem[u-n-G])
			}
		},
		func(u int, dst []int32) {
			switch {
			case u < n:
				i := 0
				for _, v := range adj[u] {
					dst[i] = int32(v)
					i++
				}
				if len(ga[groupOf[u]]) > 0 {
					dst[i] = int32(n) + groupOf[u]
				}
			case u < n+G:
				for i, g2 := range ga[u-n] {
					dst[i] = int32(n+G) + g2
				}
			default:
				copy(dst, mem[u-n-G])
			}
		})

	em, ecount := endpointMask(con, w)
	filter := con.PairFilter
	// Flip small include-sets to per-source reverse sweeps: D1 touches few
	// synchronization accesses, so per-target sweeps over all n targets
	// would dominate.
	flip := em != nil && con.EndpointsMode == EndpointsInclude &&
		con.Removed == nil && filter == nil && 4*ecount < n

	nw := WorkerCount(n)
	scr := make([]*hubScratch, nw)
	scratch := func(wk int) *hubScratch {
		if scr[wk] == nil {
			scr[wk] = &hubScratch{
				fd:    graph.NewFlowDom(hub),
				cand:  make([]uint64, w),
				y1:    make([]int32, G),
				y2:    make([]int32, G),
				gep:   make([]int32, G),
				seeds: make([]int32, 0, 2),
			}
		}
		return scr[wk]
	}

	// resolve answers one pair (a, b) after a forward sweep for b: the
	// mirrors of the whole-graph source() branches, with the per-group
	// first-visit witnesses screening before the dominator fallback.
	resolve := func(s *hubScratch, a int) bool {
		gl := ga[groupOf[a]]
		hit := false
		for _, g2 := range gl {
			if s.gep[g2] == s.epoch {
				hit = true
				break
			}
		}
		if !hit {
			return false // no member of T(a) was reached
		}
		if !s.fd.Visited(a) {
			return true // a untouched: any reached target closes the path
		}
		if graph.BitGet(sc, a) {
			return true // a's own self-conflict edge closes the path
		}
		for _, g2 := range gl {
			if s.gep[g2] != s.epoch {
				continue
			}
			if y := s.y1[g2]; y != int32(a) && !s.fd.TreeAncestor(a, int(y)) {
				return true
			}
			if y := s.y2[g2]; y >= 0 && y != int32(a) && !s.fd.TreeAncestor(a, int(y)) {
				return true
			}
		}
		ta := cs.Row(a)
		V := s.fd.VisitedRow()
		for wi := 0; wi < w; wi++ {
			for m := ta[wi] & V[wi]; m != 0; m &= m - 1 {
				y := wi<<6 + bits.TrailingZeros64(m)
				if !s.fd.DomAncestor(a, y) {
					return true
				}
			}
		}
		return false
	}

	sweep := func(s *hubScratch, b int) {
		g := groupOf[b]
		if len(ga[g]) == 0 {
			return // no usable conflict edge leaves b
		}
		cand := s.cand
		if !candidateRow(ag, b, em, con.EndpointsMode, cand) {
			return
		}
		applyPairFilter(filter, b, cand)
		row := out.byB.Row(b)
		crb := cs.Row(b)
		rest := false
		for i := range cand {
			d := crb[i] & cand[i] // single conflict edge b -> a
			row[i] |= d
			cand[i] &^= d
			if cand[i] != 0 {
				rest = true
			}
		}
		if !rest && con.Removed == nil {
			return
		}
		s.seeds = append(s.seeds[:0], int32(n)+g)
		if graph.BitGet(sc, b) {
			s.seeds = append(s.seeds, int32(b))
		}
		s.fd.Reach(s.seeds, b)
		s.epoch++
		for _, v := range s.fd.Order() {
			if v >= int32(n) {
				continue
			}
			g2 := groupOf[v]
			if s.gep[g2] != s.epoch {
				s.gep[g2] = s.epoch
				s.y1[g2] = v
				s.y2[g2] = -1
			} else if s.y2[g2] < 0 {
				s.y2[g2] = v
			}
		}
		for wi, word := range cand {
			for ; word != 0; word &= word - 1 {
				a := wi<<6 + bits.TrailingZeros64(word)
				if resolve(s, a) {
					graph.BitSet(row, a)
				}
			}
		}
		if con.Removed != nil {
			hubRestrict(s, hub, cs, con, n, b, row)
		}
	}

	// fastSweep decides b's candidates against the group's shared uncut
	// base sweep instead of running a per-source cut BFS. A witness y that
	// is base-visited, outside the base first-visit subtree of b, and
	// outside the subtree of a has a base tree path avoiding both
	// endpoints — and deleting b's in-edges cannot touch a path that never
	// enters subtree(b), so the pair is TRUE on the cut graph too. A
	// candidate whose conflict groups hold no base-visited member at all
	// is exactly FALSE, because the cut sweep visits a subset of the base
	// sweep. It reports false when some candidate was decided neither way
	// and the caller must fall back to the exact per-source sweep.
	//
	// The verdict is class-condensed: it depends on the source a only
	// through a's conflict group (which fixes the witness pools) and a's
	// subtree interval in the base tree. So per (b, source-group) cell the
	// sweep computes one summary — cellFalse (no pool member base-visited:
	// every member is exactly FALSE), cellNone (witnesses exist but all
	// inside subtree(b): inconclusive), or cellSome with the entry-time
	// extremes [mn, mx] of the witnesses surviving the subtree(b) screen.
	// A member a then resolves in O(1): unvisited a is TRUE (the surviving
	// witness is base-visited, hence distinct from a, and the subtree(a)
	// screen is moot); visited a is TRUE unless its interval covers
	// [mn, mx], i.e. every surviving witness sits inside subtree(a) — the
	// witness rejection "y == a" folds in because a's interval always
	// covers its own entry time. Only the covering members — an ancestor
	// chain of the witness span, plus self-conflict residue — need
	// per-access treatment.
	const (
		poolK     = 4
		cellFalse = uint8(iota)
		cellNone
		cellSome
	)
	fastSweep := func(s *hubScratch, b int) bool {
		cand := s.cand
		if !candidateRow(ag, b, em, con.EndpointsMode, cand) {
			return true
		}
		applyPairFilter(filter, b, cand)
		row := out.byB.Row(b)
		crb := cs.Row(b)
		rest := false
		for i := range cand {
			d := crb[i] & cand[i] // single conflict edge b -> a
			row[i] |= d
			cand[i] &^= d
			if cand[i] != 0 {
				rest = true
			}
		}
		if !rest {
			return true
		}
		base := s.base
		btin, btout := base.TreeTimes()
		bVis := base.Visited(b)
		if s.cellEp == nil {
			s.cellEp = make([]int32, G)
			s.cellSt = make([]uint8, G)
			s.cellMin = make([]int32, G)
			s.cellMax = make([]int32, G)
		}
		s.cellTick++
		done := true
		for wi, word := range cand {
			for ; word != 0; word &= word - 1 {
				a := wi<<6 + bits.TrailingZeros64(word)
				gA := groupOf[a]
				if s.cellEp[gA] != s.cellTick {
					s.cellEp[gA] = s.cellTick
					st := cellFalse
					var mn, mx int32
					for _, g2 := range ga[gA] {
						pool := s.pools[g2]
						if len(pool) == 0 {
							continue
						}
						if st == cellFalse {
							st = cellNone
						}
						for _, y := range pool {
							t := btin[y]
							if bVis && btin[b] <= t && t <= btout[b] {
								continue // y's base path may pass through b
							}
							if st != cellSome {
								st, mn, mx = cellSome, t, t
							} else if t < mn {
								mn = t
							} else if t > mx {
								mx = t
							}
						}
					}
					s.cellSt[gA], s.cellMin[gA], s.cellMax[gA] = st, mn, mx
				}
				if s.cellSt[gA] == cellSome {
					if !base.Visited(a) {
						graph.BitSet(row, a)
						continue
					}
					if !(btin[a] <= s.cellMin[gA] && s.cellMax[gA] <= btout[a]) {
						graph.BitSet(row, a)
						continue
					}
					// a's subtree covers every surviving witness; only
					// the self-conflict arm can still decide cheaply —
					// a's own edge closes the path as soon as a survives
					// the cut, witnessed by a base path outside
					// subtree(b).
					if graph.BitGet(sc, a) && (!bVis || !(btin[b] <= btin[a] && btin[a] <= btout[b])) {
						graph.BitSet(row, a)
						continue
					}
					done = false // inconclusive: needs the cut sweep
					continue
				}
				// cellFalse / cellNone: no surviving pool witness, so the
				// self-conflict arm is the only cheap decider left.
				if graph.BitGet(sc, a) && base.Visited(a) && (!bVis || !(btin[b] <= btin[a] && btin[a] <= btout[b])) {
					graph.BitSet(row, a)
					continue
				}
				if s.cellSt[gA] == cellNone {
					done = false // inconclusive: needs the cut sweep
				}
				// cellFalse: exactly FALSE — no member of T(a) is even
				// base-reachable, and cut-visited is a subset of that.
			}
		}
		return done
	}

	if con.Removed == nil {
		// Group-major forward sweeps: one shared base per conflict group.
		ParallelFor(G, nw, func(wk, g int) {
			if len(ga[g]) == 0 {
				return
			}
			s := scratch(wk)
			if s.base == nil {
				s.base = graph.NewFlowDom(hub)
				s.poolBuf = make([]int32, poolK*G)
				s.pools = make([][]int32, G)
			}
			built := false
			for _, b32 := range mem[g] {
				b := int(b32)
				if flip && !graph.BitGet(em, b) {
					continue // handled by a reverse sweep below
				}
				if !built {
					built = true
					s.seeds = append(s.seeds[:0], int32(n)+int32(g))
					s.base.Reach(s.seeds, -1)
					for i := range s.pools {
						s.pools[i] = s.poolBuf[i*poolK : i*poolK : (i+1)*poolK]
					}
					for _, v := range s.base.Order() {
						if v >= int32(n) {
							continue
						}
						if p := s.pools[groupOf[v]]; len(p) < poolK {
							s.pools[groupOf[v]] = append(p, v)
						}
					}
				}
				if !fastSweep(s, b) {
					sweep(s, b)
				}
			}
		})
	} else {
		ParallelFor(n, nw, func(wk, b int) {
			if flip && !graph.BitGet(em, b) {
				return // handled by a reverse sweep below
			}
			sweep(scratch(wk), b)
		})
	}

	if !flip {
		return
	}

	// Reverse sweeps: one per included source a, answering every target b
	// outside the include set. The reverse of the forward walk
	// b -> x -> ... -> y -> a starts at T(a) (seeded through a's reversed
	// distributor), is cut at a, and accepts a target b when some usable
	// conflict successor x of b is reached by a path avoiding b.
	rev := hub.Reverse()
	revAs := make([]int, 0, ecount)
	for wi, word := range em {
		for ; word != 0; word &= word - 1 {
			revAs = append(revAs, wi<<6+bits.TrailingZeros64(word))
		}
	}
	results := make([][]uint64, len(revAs))
	rscr := make([]*hubScratch, nw)
	ParallelFor(len(revAs), nw, func(wk, i int) {
		if rscr[wk] == nil {
			rscr[wk] = &hubScratch{
				fd:    graph.NewFlowDom(rev),
				cand:  make([]uint64, w),
				y1:    make([]int32, G),
				y2:    make([]int32, G),
				gep:   make([]int32, G),
				seeds: make([]int32, 0, 2),
			}
		}
		s := rscr[wk]
		a := revAs[i]
		g := groupOf[a]
		if len(ga[g]) == 0 {
			return // T(a) empty: no back-path can end at a
		}
		cand := s.cand
		copy(cand, ag.ReachRow(a))
		for j := range cand {
			cand[j] &^= em[j] // included targets were answered forward
		}
		if !anyWord(cand) {
			return
		}
		res := make([]uint64, w)
		cra := cs.Row(a)
		rest := false
		for j := range cand {
			d := cra[j] & cand[j] // single conflict edge b -> a
			res[j] |= d
			cand[j] &^= d
			if cand[j] != 0 {
				rest = true
			}
		}
		results[i] = res
		if !rest {
			return
		}
		s.seeds = append(s.seeds[:0], int32(n+G)+g)
		if graph.BitGet(sc, a) {
			s.seeds = append(s.seeds, int32(a))
		}
		s.fd.Reach(s.seeds, a)
		s.epoch++
		for _, v := range s.fd.Order() {
			if v >= int32(n) {
				continue
			}
			g2 := groupOf[v]
			if s.gep[g2] != s.epoch {
				s.gep[g2] = s.epoch
				s.y1[g2] = v
				s.y2[g2] = -1
			} else if s.y2[g2] < 0 {
				s.y2[g2] = v
			}
		}
		V := s.fd.VisitedRow()
		for wi, word := range cand {
			for ; word != 0; word &= word - 1 {
				b := wi<<6 + bits.TrailingZeros64(word)
				gl := ga[groupOf[b]]
				ok := false
				hit := false
				for _, g2 := range gl {
					if s.gep[g2] == s.epoch {
						hit = true
						break
					}
				}
				if !hit {
					continue // no conflict successor of b was reached
				}
				if !s.fd.Visited(b) {
					ok = true // every reverse path trivially avoids b
				} else if graph.BitGet(sc, b) {
					ok = true // x = b: the first-visit path to b is interior-clean
				} else {
					for _, g2 := range gl {
						if s.gep[g2] != s.epoch {
							continue
						}
						if x := s.y1[g2]; x != int32(b) && !s.fd.TreeAncestor(b, int(x)) {
							ok = true
							break
						}
						if x := s.y2[g2]; x >= 0 && x != int32(b) && !s.fd.TreeAncestor(b, int(x)) {
							ok = true
							break
						}
					}
					if !ok {
						tb := cs.Row(b)
						for wj := 0; wj < w && !ok; wj++ {
							for m := tb[wj] & V[wj]; m != 0; m &= m - 1 {
								x := wj<<6 + bits.TrailingZeros64(m)
								if !s.fd.DomAncestor(b, x) {
									ok = true
									break
								}
							}
						}
					}
				}
				if ok {
					graph.BitSet(res, b)
				}
			}
		}
	})
	// Merge in source order; the per-sweep buffers make the result
	// independent of worker scheduling.
	for i, a := range revAs {
		res := results[i]
		if res == nil {
			continue
		}
		for wi, word := range res {
			for ; word != 0; word &= word - 1 {
				b := wi<<6 + bits.TrailingZeros64(word)
				graph.BitSet(out.byB.Row(b), a)
			}
		}
	}
}

// hubRestrict re-validates target b's accepted pairs under the Removed
// predicate. Removal only shrinks the walkable graph, so stage-1-false
// pairs stay false; each stage-1-true pair either shows no removable
// access among the reached nodes (the unrestricted search already is the
// restricted one) or re-runs the per-pair search on the hub graph.
func hubRestrict(s *hubScratch, hub *graph.CSR, cs *conflict.Set, con Constraints, n, b int, row []uint64) {
	V := s.fd.VisitedRow()
	var cover []uint64
	if con.RemovedCover != nil {
		cover = make([]uint64, len(row))
	}
	for wi, word := range row {
		for ; word != 0; word &= word - 1 {
			a := wi<<6 + bits.TrailingZeros64(word)
			if con.RemovedCover != nil {
				cov := con.RemovedCover(a, b, cover)
				if !graph.AndAny(cov, V[:len(row)]) {
					continue // no removable access was even reachable
				}
			}
			if !hubPairSearch(s, hub, cs, n, a, b, con.Removed) {
				row[wi] &^= 1 << (uint(a) & 63)
			}
		}
	}
}

// hubPairSearch mirrors the whole-graph pairSearch on the hub-compressed
// graph: hub nodes are traversal plumbing — never removable, never
// targets, never endpoints.
func hubPairSearch(s *hubScratch, hub *graph.CSR, cs *conflict.Set, n, a, b int, rem func(a, b, z int) bool) bool {
	removed := func(z int) bool {
		if z == a || z == b {
			return false
		}
		return rem(a, b, z)
	}
	ta := cs.Row(a)
	if graph.BitGet(ta, b) {
		return true // single conflict edge b -> a
	}
	if s.psc == nil {
		s.psc = &pairScratch{mark: make([]int32, hub.N)}
	}
	sc := s.psc
	sc.epoch++
	sc.stack = sc.stack[:0]
	for wi, word := range cs.Row(b) {
		for ; word != 0; word &= word - 1 {
			x := wi<<6 + bits.TrailingZeros64(word)
			if removed(x) {
				continue
			}
			if graph.BitGet(ta, x) {
				return true
			}
			if x == a {
				continue
			}
			if sc.mark[x] != sc.epoch {
				sc.mark[x] = sc.epoch
				sc.stack = append(sc.stack, int32(x))
			}
		}
	}
	for len(sc.stack) > 0 {
		u := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		for _, v := range hub.Out(int(u)) {
			vi := int(v)
			if sc.mark[vi] == sc.epoch {
				continue
			}
			if vi < n {
				if removed(vi) {
					continue
				}
				if graph.BitGet(ta, vi) {
					return true
				}
				if vi == a || vi == b {
					continue
				}
			}
			sc.mark[vi] = sc.epoch
			sc.stack = append(sc.stack, v)
		}
	}
	return false
}

// mixedAdj is the global mixed adjacency consumed by the word-parallel
// restricted searches: directed conflict rows (physically shared per
// class when the caller condensed them — never expanded here) plus the
// sparse program-order edges, traversed separately so no per-access n-bit
// union row ever materializes.
type mixedAdj struct {
	dir graph.Rows
	adj [][]int
}

// regionScratch is one worker's reusable state for sccCompute.
type regionScratch struct {
	localOf []int32  // global -> local id, valid for the current region only
	cand    []uint64 // candidate sources of the current target
	gv      []uint64 // global visited bitset for the RemovedCover screen
	cover   []uint64 // RemovedCover scratch
	vis     []uint64 // denseRestrict visited set
	teff    []uint64 // denseRestrict effective target set
	queue   []int32  // denseRestrict BFS queue
}

func newRegionScratch(n int) *regionScratch {
	w := graph.WordsFor(n)
	return &regionScratch{
		localOf: make([]int32, n),
		cand:    make([]uint64, w),
		gv:      make([]uint64, w),
		cover:   make([]uint64, w),
		vis:     make([]uint64, w),
		teff:    make([]uint64, w),
	}
}

// sccCompute answers pairs under directed conflict edges by decomposing
// the mixed graph into its strongly connected components and running the
// whole-graph per-target logic on each induced subgraph. Orientation by
// the precedence relation collapses cross-phase cycles, so the regions
// are essentially the barrier phases and the per-region subgraphs stay
// small even when the program does not.
func sccCompute(ag *ir.AccessGraph, cs *conflict.Set, con Constraints, out *Set) {
	n := cs.N()
	w := graph.WordsFor(n)
	adj := ag.G.Adj

	var dirOut graph.Rows = con.DirRows
	if dirOut == nil {
		cdir := con.ConflictDir
		dm := graph.NewBitMatrix(n)
		for x := 0; x < n; x++ {
			for _, y := range cs.Partners(x) {
				if cdir(x, y) {
					dm.Set(x, y)
				}
			}
		}
		dirOut = dm
	}
	dirIn := graph.TransposeRows(dirOut)

	cd := con.Comp
	if cd == nil {
		iter := func(u int, visit func(v int32)) {
			for _, v := range adj[u] {
				visit(int32(v))
			}
			for wi, word := range dirOut.Row(u) {
				for ; word != 0; word &= word - 1 {
					visit(int32(wi<<6 + bits.TrailingZeros64(word)))
				}
			}
		}
		cd = graph.Condense(n, iter)
	}

	em, _ := endpointMask(con, w)
	filter := con.PairFilter

	// Global mixed adjacency for word-parallel restricted searches: with an
	// exact removal cover, the per-pair re-search seeds its visited set with
	// the cover and sweeps the directed conflict rows word-parallel (one
	// physical row per class when the caller condensed them) plus the sparse
	// program-order edges. Below ~512 accesses the per-word overhead beats
	// nothing.
	var gd *mixedAdj
	if con.Removed != nil && con.RemovedExact && con.RemovedCover != nil && n >= 512 {
		gd = &mixedAdj{dir: dirOut, adj: adj}
	}

	nw := WorkerCount(cd.NComp)
	scr := make([]*regionScratch, nw)

	ParallelFor(cd.NComp, nw, func(wk, c int) {
		members := cd.Members[c]
		if scr[wk] == nil {
			scr[wk] = newRegionScratch(n)
		}
		regionSolve(ag, cs, con, out, cd, c, members, dirOut, dirIn, em, filter, gd, scr[wk])
	})
}

// regionSolve runs the per-target searches of one region. Confinement
// makes every restriction exact: seeds, targets, and interior nodes of
// any witness walk for a pair inside this region are themselves inside it
// (a node outside would extend the closed walk through another SCC).
func regionSolve(ag *ir.AccessGraph, cs *conflict.Set, con Constraints, out *Set,
	cd *graph.Condensation, c int, members []int32,
	dirOut, dirIn graph.Rows, em []uint64, filter func(a, b int) bool,
	gd *mixedAdj, sc *regionScratch) {

	nl := len(members)
	w := len(sc.cand)
	mask := make([]uint64, w)
	for _, v := range members {
		graph.BitSet(mask, int(v))
	}

	// Cheap pre-pass: bail before building any local structure when no
	// target in the region has a considered same-region source.
	anyCand := false
	for _, gb := range members {
		if !candidateRow(ag, int(gb), em, con.EndpointsMode, sc.cand) {
			continue
		}
		for i := range sc.cand {
			if sc.cand[i]&mask[i] != 0 {
				anyCand = true
				break
			}
		}
		if anyCand {
			break
		}
	}
	if !anyCand {
		return
	}

	lof := sc.localOf
	for i, v := range members {
		lof[v] = int32(i)
	}
	comp := cd.Comp
	adj := ag.G.Adj

	// Memoized regions replay their stored rows. The fingerprint is in
	// local ids, so a hit is exact even across the global renumbering a
	// source edit causes; tiny regions are not worth the key computation.
	memo := cacheUsable(con) && nl >= 32
	var key Sig
	if memo {
		key = regionSig(ag, con, comp, c, members, mask, lof, dirOut, em)
		if e := con.Cache.get(key); e != nil {
			for lb, r := range e.rows {
				row := out.byB.Row(int(members[lb]))
				for wi, word := range r {
					for ; word != 0; word &= word - 1 {
						graph.BitSet(row, int(members[wi<<6+bits.TrailingZeros64(word)]))
					}
				}
			}
			return
		}
	}
	store := func() {
		if !memo {
			return
		}
		lw := graph.WordsFor(nl)
		rows := make([][]uint64, nl)
		for lb, gb := range members {
			r := make([]uint64, lw)
			for wi, word := range out.byB.Row(int(gb)) {
				for m := word & mask[wi]; m != 0; m &= m - 1 {
					graph.BitSet(r, int(lof[wi<<6+bits.TrailingZeros64(m)]))
				}
			}
			rows[lb] = r
		}
		con.Cache.put(key, &cacheEntry{rows: rows})
	}

	// Dense regions flip to bitset-row BFS: per-target cost drops from
	// O(E) edge visits to O(nl^2/64) word operations, and the avoid-BFS
	// fallback replaces per-target dominator trees. Word-op parity sits at
	// one edge per node word, and the dense path's branch-free inner loop
	// plus its cheaper fallbacks win from roughly that point on.
	if nl >= 256 {
		eLocal := 0
		for _, gv := range members {
			gu := int(gv)
			for _, v := range adj[gu] {
				if comp[v] == int32(c) {
					eLocal++
				}
			}
			for wi, word := range dirOut.Row(gu) {
				eLocal += bits.OnesCount64(word & mask[wi])
			}
		}
		if eLocal >= nl*nl/64 {
			// The class-condensed engine shares one BFS tree per target
			// class; it declines (writing nothing) when the constraint
			// shape or class structure doesn't support sharing.
			if !classSolveUsable(con, filter) ||
				!classSolve(ag, con, out, members, mask, lof, dirOut, dirIn, em, gd, sc) {
				denseSolve(ag, con, out, members, mask, lof, dirOut, dirIn, em, filter, gd, sc)
			}
			store()
			return
		}
	}
	lcsr := graph.BuildCSR(nl,
		func(lu int) int {
			gu := int(members[lu])
			d := 0
			for _, v := range adj[gu] {
				if comp[v] == int32(c) {
					d++
				}
			}
			for wi, word := range dirOut.Row(gu) {
				d += bits.OnesCount64(word & mask[wi])
			}
			return d
		},
		func(lu int, dst []int32) {
			gu := int(members[lu])
			i := 0
			for _, v := range adj[gu] {
				if comp[v] == int32(c) {
					dst[i] = lof[v]
					i++
				}
			}
			for wi, word := range dirOut.Row(gu) {
				for m := word & mask[wi]; m != 0; m &= m - 1 {
					dst[i] = lof[wi<<6+bits.TrailingZeros64(m)]
					i++
				}
			}
		})

	// Local target rows: tl bit (lb, ly) iff the conflict edge y -> b is
	// usable and y is in the region.
	tl := graph.NewBitMatrix(nl)
	for lu, gu := range members {
		for wi, word := range dirIn.Row(int(gu)) {
			for m := word & mask[wi]; m != 0; m &= m - 1 {
				tl.Set(lu, int(lof[wi<<6+bits.TrailingZeros64(m)]))
			}
		}
	}

	fd := graph.NewFlowDom(lcsr)
	var psc *pairScratch
	seeds := make([]int32, 0, 16)
	lw := graph.WordsFor(nl)

	for lb, gb32 := range members {
		gb := int(gb32)
		cand := sc.cand
		if !candidateRow(ag, gb, em, con.EndpointsMode, cand) {
			continue
		}
		for i := range cand {
			cand[i] &= mask[i]
		}
		applyPairFilter(filter, gb, cand)
		row := out.byB.Row(gb)
		drow := dirOut.Row(gb)
		rest := false
		for i := range cand {
			d := drow[i] & cand[i] // single conflict edge b -> a
			row[i] |= d
			cand[i] &^= d
			if cand[i] != 0 {
				rest = true
			}
		}
		if !rest && con.Removed == nil {
			continue
		}
		seeds = seeds[:0]
		for wi, word := range drow {
			for m := word & mask[wi]; m != 0; m &= m - 1 {
				seeds = append(seeds, lof[wi<<6+bits.TrailingZeros64(m)])
			}
		}
		if len(seeds) == 0 {
			continue // no usable conflict edge leaves b within the region
		}
		fd.Reach(seeds, lb)
		V := fd.VisitedRow()
		gvReady := false
		for wi, word := range cand {
			for ; word != 0; word &= word - 1 {
				a := wi<<6 + bits.TrailingZeros64(word)
				la := int(lof[a])
				tla := tl.Row(la)
				res := false
				switch {
				case graph.BitGet(V, la) == false:
					res = graph.AndAny(tla, V)
				case graph.BitGet(tla, la):
					res = true
				default:
					// Witness screen: any reached y in T(a) whose first-visit
					// path provably avoids a settles the pair without touching
					// dominators. Only when every early witness is a tree
					// descendant of a does the exact avoid-search run; the
					// lazily built dominator tree is reserved for targets
					// whose fallback rate would make repeated searches worse.
					hit, checked := false, 0
				screen:
					for wj := 0; wj < lw; wj++ {
						for m := tla[wj] & V[wj]; m != 0; m &= m - 1 {
							y := wj<<6 + bits.TrailingZeros64(m)
							if y == la {
								continue
							}
							hit = true
							if !fd.TreeAncestor(la, y) {
								res = true
								break screen
							}
							if checked++; checked >= 16 {
								break screen
							}
						}
					}
					if !res && hit {
						if psc == nil {
							psc = &pairScratch{mark: make([]int32, nl)}
						}
						res = localAvoidSearch(psc, lcsr, tla, seeds, la, lb)
					}
				}
				if !res {
					continue
				}
				if con.Removed != nil {
					var cov []uint64
					if con.RemovedCover != nil {
						if !gvReady {
							gvReady = true
							for i := range sc.gv {
								sc.gv[i] = 0
							}
							for _, lv := range fd.Order() {
								graph.BitSet(sc.gv, int(members[lv]))
							}
						}
						cov = con.RemovedCover(a, gb, sc.cover)
						if !graph.AndAny(cov, sc.gv) {
							graph.BitSet(row, a) // no removable access reachable
							continue
						}
					}
					if gd != nil {
						var hit bool
						sc.queue, hit = denseRestrict(gd, mask, cov, dirIn.Row(a), dirOut.Row(gb), a, gb, sc.vis, sc.teff, sc.queue)
						if !hit {
							continue
						}
					} else {
						if psc == nil {
							psc = &pairScratch{mark: make([]int32, nl)}
						}
						if !localPairSearch(psc, lcsr, tl, members, seeds, a, la, gb, lb, con.Removed) {
							continue
						}
					}
				}
				graph.BitSet(row, a)
			}
		}
		if con.Removed != nil {
			// Direct pairs were accepted before the search; the per-pair
			// reference accepts them unconditionally too (its first check
			// precedes any removal), so nothing to re-validate.
			_ = gvReady
		}
	}
	store()
}

// denseSolve runs one dense region's per-target searches on bitset rows:
// the same acceptance logic as regionSolve, except that the
// dominator-tree fallback is replaced by DenseFlow.AvoidReach — an exact
// second BFS that on a dense matrix costs no more than the first — after
// the first-visit-tree witness screen fails to certify a pair.
func denseSolve(ag *ir.AccessGraph, con Constraints, out *Set,
	members []int32, mask []uint64, lof []int32,
	dirOut, dirIn graph.Rows, em []uint64, filter func(a, b int) bool,
	gd *mixedAdj, sc *regionScratch) {

	nl := len(members)
	lw := graph.WordsFor(nl)
	adj := ag.G.Adj

	// Local dense adjacency: program-order and usable conflict successors
	// within the region, in local ids.
	L := graph.NewBitMatrix(nl)
	tl := graph.NewBitMatrix(nl)
	for lu, gv := range members {
		gu := int(gv)
		row := L.Row(lu)
		for _, v := range adj[gu] {
			if graph.BitGet(mask, v) {
				graph.BitSet(row, int(lof[v]))
			}
		}
		for wi, word := range dirOut.Row(gu) {
			for m := word & mask[wi]; m != 0; m &= m - 1 {
				graph.BitSet(row, int(lof[wi<<6+bits.TrailingZeros64(m)]))
			}
		}
		trow := tl.Row(lu)
		for wi, word := range dirIn.Row(gu) {
			for m := word & mask[wi]; m != 0; m &= m - 1 {
				graph.BitSet(trow, int(lof[wi<<6+bits.TrailingZeros64(m)]))
			}
		}
	}

	df := graph.NewDenseFlow(L)
	seeds := make([]int32, 0, 64)
	var pvis []uint64
	var pstack []int32

	for lb, gb32 := range members {
		gb := int(gb32)
		cand := sc.cand
		if !candidateRow(ag, gb, em, con.EndpointsMode, cand) {
			continue
		}
		for i := range cand {
			cand[i] &= mask[i]
		}
		applyPairFilter(filter, gb, cand)
		row := out.byB.Row(gb)
		drow := dirOut.Row(gb)
		rest := false
		for i := range cand {
			d := drow[i] & cand[i] // single conflict edge b -> a
			row[i] |= d
			cand[i] &^= d
			if cand[i] != 0 {
				rest = true
			}
		}
		if !rest && con.Removed == nil {
			continue
		}
		seeds = seeds[:0]
		for wi, word := range drow {
			for m := word & mask[wi]; m != 0; m &= m - 1 {
				seeds = append(seeds, lof[wi<<6+bits.TrailingZeros64(m)])
			}
		}
		if len(seeds) == 0 {
			continue // no usable conflict edge leaves b within the region
		}
		df.Reach(seeds, lb)
		V := df.VisitedRow()
		gvReady := false
		for wi, word := range cand {
			for ; word != 0; word &= word - 1 {
				a := wi<<6 + bits.TrailingZeros64(word)
				la := int(lof[a])
				tla := tl.Row(la)
				res := false
				switch {
				case !graph.BitGet(V, la):
					res = graph.AndAny(tla, V)
				case graph.BitGet(tla, la):
					res = true
				default:
					// Witness screen: any reached y in T(a) whose
					// first-visit path provably avoids a settles the pair.
					// On dense graphs the BFS tree is shallow, so the first
					// few witnesses almost always decide; if none does, one
					// exact avoid-BFS answers.
					hit, checked := false, 0
				screen:
					for wj := 0; wj < lw; wj++ {
						for m := tla[wj] & V[wj]; m != 0; m &= m - 1 {
							y := wj<<6 + bits.TrailingZeros64(m)
							if y == la {
								continue
							}
							hit = true
							if !df.TreeAncestor(la, y) {
								res = true
								break screen
							}
							if checked++; checked >= 16 {
								break screen
							}
						}
					}
					if !res && hit {
						res = df.AvoidReach(seeds, lb, la, tla)
					}
				}
				if !res {
					continue
				}
				if con.Removed != nil {
					var cov []uint64
					if con.RemovedCover != nil {
						if !gvReady {
							gvReady = true
							for i := range sc.gv {
								sc.gv[i] = 0
							}
							for _, lv := range df.Order() {
								graph.BitSet(sc.gv, int(members[lv]))
							}
						}
						cov = con.RemovedCover(a, gb, sc.cover)
						if !graph.AndAny(cov, sc.gv) {
							graph.BitSet(row, a) // no removable access reachable
							continue
						}
					}
					if gd != nil {
						var hitP bool
						sc.queue, hitP = denseRestrict(gd, mask, cov, dirIn.Row(a), dirOut.Row(gb), a, gb, sc.vis, sc.teff, sc.queue)
						if !hitP {
							continue
						}
					} else {
						if pvis == nil {
							pvis = make([]uint64, lw)
							pstack = make([]int32, 0, nl)
						}
						var hitP bool
						pstack, hitP = densePairSearch(L, pvis, pstack, tl.Row(la), members, seeds, a, la, gb, lb, con.Removed)
						if !hitP {
							continue
						}
					}
				}
				graph.BitSet(row, a)
			}
		}
	}
}

// denseRestrict answers one Removed-restricted pair (a, b) word-parallel
// on the global dense mixed adjacency gd, given that cov is EXACTLY the
// removed set for the pair (Constraints.RemovedExact). Instead of calling
// the predicate per encountered node, removed nodes (and everything
// outside the region) are folded into the visited set up front, so they
// are never expanded and never accepted — the reference's removed-before-
// target ordering by construction. The endpoint exemptions are restored
// explicitly: a stays avoidable-but-acceptable (its bit is set in vis so
// it is never interior, and re-added to the target set when it carries a
// usable self-conflict edge), and b's removal is irrelevant because the
// cut already keeps the walk from re-entering its own target (a walk
// through b restarts at b, shrinking to one the suffix proves).
func denseRestrict(gd *mixedAdj, mask, cov, ta, drow []uint64,
	a, b int, vis, teff []uint64, queue []int32) ([]int32, bool) {

	any := false
	for i := range teff {
		t := ta[i] & mask[i] &^ cov[i]
		teff[i] = t
		any = any || t != 0
	}
	if graph.BitGet(ta, a) && graph.BitGet(mask, a) {
		graph.BitSet(teff, a) // self-conflict edge: a is an exempt target
		any = true
	}
	if !any {
		return queue, false
	}
	for i := range vis {
		vis[i] = ^mask[i] | cov[i]
	}
	graph.BitSet(vis, a)
	graph.BitSet(vis, b)
	queue = queue[:0]
	// A usable self-conflict edge b -> b makes b itself a seed: the walk
	// may continue from b over any mixed edge, including b's program-order
	// successors, which the conflict-only seed sweep below cannot supply.
	// Its vis bit (set above) only blocks re-entry, not this expansion.
	if graph.BitGet(drow, b) && graph.BitGet(mask, b) {
		queue = append(queue, int32(b))
	}
	// Seed step: one expansion of b over its usable conflict edges.
	for wi := range vis {
		sw := drow[wi] & mask[wi]
		if sw == 0 {
			continue
		}
		if sw&teff[wi] != 0 {
			return queue, true
		}
		nw := sw &^ vis[wi]
		vis[wi] |= nw
		for ; nw != 0; nw &= nw - 1 {
			queue = append(queue, int32(wi<<6+bits.TrailingZeros64(nw)))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		u := int(queue[qi])
		row := gd.dir.Row(u)
		for wi := range vis {
			if row[wi]&teff[wi] != 0 {
				return queue, true
			}
			nw := row[wi] &^ vis[wi]
			if nw == 0 {
				continue
			}
			vis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				queue = append(queue, int32(wi<<6+bits.TrailingZeros64(nw)))
			}
		}
		for _, v := range gd.adj[u] {
			if graph.BitGet(teff, v) {
				return queue, true
			}
			if !graph.BitGet(vis, v) {
				graph.BitSet(vis, v)
				queue = append(queue, int32(v))
			}
		}
	}
	return queue, false
}

// densePairSearch mirrors localPairSearch on the dense local adjacency.
// Removed nodes are marked visited-without-expansion: they would be
// skipped on every future encounter anyway, and marking caps the number
// of Removed-predicate calls at one per node.
func densePairSearch(L *graph.BitMatrix, pvis []uint64, stack []int32,
	tla []uint64, members, seeds []int32, a, la, b, lb int, rem func(a, b, z int) bool) ([]int32, bool) {

	removed := func(gz int) bool {
		if gz == a || gz == b {
			return false
		}
		return rem(a, b, gz)
	}
	if graph.BitGet(tla, lb) {
		return stack, true // single conflict edge b -> a
	}
	for i := range pvis {
		pvis[i] = 0
	}
	stack = stack[:0]
	for _, lx := range seeds {
		xi := int(lx)
		if removed(int(members[xi])) {
			continue
		}
		if graph.BitGet(tla, xi) {
			return stack, true
		}
		if xi == la || graph.BitGet(pvis, xi) {
			continue
		}
		graph.BitSet(pvis, xi)
		stack = append(stack, lx)
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		row := L.Row(int(u))
		for wi := range pvis {
			nw := row[wi] &^ pvis[wi]
			if nw == 0 {
				continue
			}
			pvis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				vi := wi<<6 + bits.TrailingZeros64(nw)
				if removed(int(members[vi])) {
					continue // marked above: never expanded, never a target
				}
				if graph.BitGet(tla, vi) {
					return stack, true
				}
				if vi == la || vi == lb {
					continue
				}
				stack = append(stack, int32(vi))
			}
		}
	}
	return stack, false
}

// localAvoidSearch is the exact fallback behind the witness screen: does
// any node of tla lie on a path from seeds that avoids la? Identical to
// localPairSearch with no Removed predicate — target tests precede the
// la/lb interior skips, and lb reappearing as a target is accepted —
// which is exactly the disjunction over y in T(a) of "y reachable
// avoiding a" that the dominator fallback used to answer one y at a time.
func localAvoidSearch(sc *pairScratch, lcsr *graph.CSR, tla []uint64, seeds []int32, la, lb int) bool {
	sc.epoch++
	sc.stack = sc.stack[:0]
	for _, lx := range seeds {
		xi := int(lx)
		if graph.BitGet(tla, xi) {
			return true
		}
		if xi == la {
			continue
		}
		if sc.mark[xi] != sc.epoch {
			sc.mark[xi] = sc.epoch
			sc.stack = append(sc.stack, lx)
		}
	}
	for len(sc.stack) > 0 {
		u := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		for _, lv := range lcsr.Out(int(u)) {
			vi := int(lv)
			if sc.mark[vi] == sc.epoch {
				continue
			}
			if graph.BitGet(tla, vi) {
				return true
			}
			if vi == la || vi == lb {
				continue
			}
			sc.mark[vi] = sc.epoch
			sc.stack = append(sc.stack, lv)
		}
	}
	return false
}

// localPairSearch mirrors the whole-graph pairSearch on one region's
// induced subgraph, translating ids only at the Removed calls.
func localPairSearch(sc *pairScratch, lcsr *graph.CSR, tl *graph.BitMatrix,
	members, seeds []int32, a, la, b, lb int, rem func(a, b, z int) bool) bool {

	removed := func(gz int) bool {
		if gz == a || gz == b {
			return false
		}
		return rem(a, b, gz)
	}
	tla := tl.Row(la)
	if graph.BitGet(tla, lb) {
		return true // single conflict edge b -> a
	}
	sc.epoch++
	sc.stack = sc.stack[:0]
	for _, lx := range seeds {
		xi := int(lx)
		if removed(int(members[xi])) {
			continue
		}
		if graph.BitGet(tla, xi) {
			return true
		}
		if xi == la {
			continue
		}
		if sc.mark[xi] != sc.epoch {
			sc.mark[xi] = sc.epoch
			sc.stack = append(sc.stack, lx)
		}
	}
	for len(sc.stack) > 0 {
		u := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		for _, lv := range lcsr.Out(int(u)) {
			vi := int(lv)
			if sc.mark[vi] == sc.epoch || removed(int(members[vi])) {
				continue
			}
			if graph.BitGet(tla, vi) {
				return true
			}
			if vi == la || vi == lb {
				continue
			}
			sc.mark[vi] = sc.epoch
			sc.stack = append(sc.stack, lv)
		}
	}
	return false
}
