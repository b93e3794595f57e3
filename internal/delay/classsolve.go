package delay

import (
	"math/bits"
	"sync"

	"repro/internal/graph"
	"repro/internal/ir"
)

// classSolve is denseSolve restructured around Constraints.AccessClass:
// accesses of one class share dirOut/dirIn rows (restricted to the region)
// and removal behaviour, so the per-target cut BFS that denseSolve runs nl
// times collapses to one uncut BFS per distinct SEED ROW — target classes
// are ordered so classes sharing a seed row are adjacent — and most
// per-pair avoid-searches collapse to O(1) interval queries against that
// shared first-visit tree.
//
// The certificate machinery: one uncut BFS per seed row yields a
// first-visit tree whose preorder intervals are nested or disjoint, so
// "how many witnesses of T(a) lie under subtree(la) ∪ subtree(lb)" is two
// rank queries on a bitset of witness entry times. A witness outside both
// subtrees has a tree path avoiding la and lb entirely — an exact TRUE
// for the pair — and zero reachable witnesses on the UNcut tree is an
// exact FALSE (uncut reach only over-approximates the reference's cut
// reach). Pairs the shared tree cannot certify fall to a per-a-class
// blocked BFS (TRUE-only: blocking the whole class under-approximates
// blocking one member) and finally to DenseFlow.AvoidReach, the same
// exact per-pair search denseSolve uses. The Removed stage repeats the
// pattern on a cover-restricted tree — rebuilt only when the cover or the
// seed row actually changes — with denseRestrict/densePairSearch as the
// exact residue.
//
// Returns false — having written nothing — when the region's seed-row
// diversity makes sharing pointless or the constraint shape is
// unsupported; the caller then runs denseSolve.
func classSolve(ag *ir.AccessGraph, con Constraints, out *Set,
	members []int32, mask []uint64, lof []int32,
	dirOut, dirIn graph.Rows, em []uint64,
	gd *mixedAdj, sc *regionScratch) bool {

	nl := len(members)
	lw := graph.WordsFor(nl)

	// Local class ids, in first-seen member order.
	lcOf := make([]int32, nl)
	gid2l := make(map[int32]int32, 64)
	ncl := 0
	for li, gv := range members {
		g := con.AccessClass[gv]
		l, ok := gid2l[g]
		if !ok {
			l = int32(ncl)
			ncl++
			gid2l[g] = l
		}
		lcOf[li] = l
	}
	byClass := make([][]int32, ncl)
	for lb := 0; lb < nl; lb++ {
		byClass[lcOf[lb]] = append(byClass[lcOf[lb]], int32(lb))
	}

	// Group target classes by localized seed-row content (hash bucket plus
	// exact compare): the shared tree only depends on the seed row, so
	// classes differing in guards, R class, or witness rows still share it.
	type tgroup struct {
		row     []uint64 // localized seed row
		seeds   []int32
		classes []int32
	}
	var groups []*tgroup
	buckets := make(map[uint64][]*tgroup)
	buf := make([]uint64, lw)
	for bc := 0; bc < ncl; bc++ {
		drow := dirOut.Row(int(members[byClass[bc][0]]))
		for i := range buf {
			buf[i] = 0
		}
		for wi, word := range drow {
			for m := word & mask[wi]; m != 0; m &= m - 1 {
				graph.BitSet(buf, int(lof[wi<<6+bits.TrailingZeros64(m)]))
			}
		}
		h := uint64(1469598103934665603)
		for _, wd := range buf {
			h ^= wd
			h *= 1099511628211
		}
		var g *tgroup
		for _, cand := range buckets[h] {
			if wordsEqual64(cand.row, buf) {
				g = cand
				break
			}
		}
		if g == nil {
			row := make([]uint64, lw)
			copy(row, buf)
			var seeds []int32
			for wi, word := range row {
				for ; word != 0; word &= word - 1 {
					seeds = append(seeds, int32(wi<<6+bits.TrailingZeros64(word)))
				}
			}
			g = &tgroup{row: row, seeds: seeds}
			buckets[h] = append(buckets[h], g)
			groups = append(groups, g)
		}
		g.classes = append(g.classes, int32(bc))
	}
	// Too little sharing: the per-tree and per-cell state would not
	// amortize over denseSolve's straight per-target sweep.
	if len(groups) > nl/3 {
		return false
	}

	// Local dense adjacency, exactly as denseSolve builds it.
	adj := ag.G.Adj
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

	// Tree groups fan out across workers. A group writes only the out.byB
	// rows of its own target classes, so no locking is needed; L, tl and
	// L's transpose are shared read-only, and everything a group mutates
	// lives in its worker's solver closure. The fan-out waits for regions
	// big enough to amortize one solver's scratch per worker.
	var ltOnce sync.Once
	var ltm *graph.BitMatrix // L's transpose, for witness-predecessor rows
	transpose := func() *graph.BitMatrix {
		ltOnce.Do(func() { ltm = L.Transpose() })
		return ltm
	}
	tw := graph.WordsFor(2 * (nl + 2))
	newSolver := func(sc *regionScratch) func(g *tgroup) {
		flowB := newClassFlow(nl) // shared uncut tree of the current seed row
		flowC := newClassFlow(nl) // per-target cut tree, derived incrementally
		df := graph.NewDenseFlow(L)
		slots := make([]aclsSlot, ncl)

		visG := make([]uint64, len(mask)) // flowB.vis in global bit positions
		visGEp := int32(0)
		var pvis []uint64
		var pstack []int32
		bG := make([]uint64, len(mask)) // global members of the current target class
		bGEp := int32(0)
		var cvis []uint64
		var ctin, ctout []int32
		var sbS, tbS, vbS []uint64 // sparse-bracket scratch (survivors, targets, visited)
		slBuf := make([]int32, 0, sparseCap+1)
		var selfT []int32
		tepoch := int32(0) // advances per tree group
		bepoch := int32(0) // advances per target class
		lepoch := int32(0) // advances per target access

		return func(g *tgroup) {
			tepoch++
			treeReady := false
			seeds, seedsRow := g.seeds, g.row

			for _, bc := range g.classes {
				bepoch++

				for _, lb32 := range byClass[bc] {
					lb := int(lb32)
					gb := int(members[lb])
					lepoch++
					cutReady := false
					cand := sc.cand
					if !candidateRow(ag, gb, em, con.EndpointsMode, cand) {
						continue
					}
					for i := range cand {
						cand[i] &= mask[i]
					}
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
					if !rest {
						continue
					}
					if len(seeds) == 0 {
						continue // no usable conflict edge leaves b within the region
					}
					if !treeReady {
						treeReady = true
						flowB.reach(L, seedsRow, nil)
					}

					for wi, word := range cand {
						for ; word != 0; word &= word - 1 {
							a := wi<<6 + bits.TrailingZeros64(word)
							la := int(lof[a])
							st := &slots[lcOf[la]]

							// Tier 0: a seed that is itself a witness is accepted
							// by the reference before any la/lb filtering — even
							// when it equals la — so the whole (a-class, tree)
							// cell is TRUE.
							// Tier 1: shared-tree interval certificate. Per
							// (a-class, target) cell the witnesses OUTSIDE
							// subtree(lb) are summarized once by their count and
							// entry-time extremes; a pair then has an uncovered
							// witness iff subtree(la) fails to bracket those
							// extremes — three integer compares on the hot path
							// instead of a rank query per pair.
							if st.e1 != tepoch {
								st.e1 = tepoch
								tla := tl.Row(la)
								st.sw = graph.AndAny(seedsRow, tla)
								if !st.sw {
									st.w1.build(tla, flowB.vis, flowB.tin, tw)
								}
							}
							res, dec := false, false
							if st.sw {
								dec, res = true, true
							} else if st.w1.total == 0 {
								dec = true // unreachable even without the cut
							} else {
								if st.eX != lepoch {
									st.eX = lepoch
									st.xOut, st.xMin, st.xMax = st.w1.outside(flowB.vis, flowB.tin, flowB.tout, lb)
								}
								if st.xOut > 0 &&
									!(graph.BitGet(flowB.vis, la) && flowB.tin[la] <= st.xMin && st.xMax <= flowB.tout[la]) {
									dec, res = true, true // witness outside both subtrees
								} else if graph.BitGet(tl.Row(la), la) && graph.BitGet(flowB.vis, la) &&
									!inSubtree(flowB.vis, flowB.tin, flowB.tout, lb, la) {
									dec, res = true, true // witness y == a, tree path avoids b
								}
							}

							// Tier 1.5: cut-tree certificate. One BFS with lb's
							// in-edges deleted — exactly denseSolve's per-target
							// tree — amortized over every unresolved pair of this
							// lb. Cut-tree paths are lb-legal by construction
							// (seed-equal-to-cut is still expanded, matching the
							// reference), so a witness outside subtree(la) is an
							// exact TRUE, and zero reachable witnesses is an exact
							// FALSE: the reference's accepted targets are a subset
							// of cut-reach because a target is never lb here.
							if !dec {
								tla := tl.Row(la)
								selfConf := graph.BitGet(tla, la)
								if !cutReady {
									cutReady = true
									if graph.BitGet(seedsRow, lb) {
										// The reference expands a seed equal to its
										// own cut, so the cut tree IS the shared
										// tree: every tree path has lb only in
										// start position, which is legal.
										cvis, ctin, ctout = flowB.vis, flowB.tin, flowB.tout
									} else {
										flowC.reachCutFrom(L, transpose(), flowB, lb)
										cvis, ctin, ctout = flowC.vis, flowC.tin, flowC.tout
									}
								}
								if st.eC != lepoch {
									st.eC = lepoch
									st.wCut.build(tla, cvis, ctin, tw)
								}
								if st.wCut.total == 0 {
									dec = true
								} else if coveredCount(&st.wCut, cvis, ctin, ctout, la, la) < st.wCut.total {
									dec, res = true, true
								} else if selfConf && graph.BitGet(cvis, la) {
									// Witness y == a: accepted on generation by the
									// reference, and its cut-tree path has la only
									// as its endpoint.
									dec, res = true, true
								}

								// Tier 1.75: witness-predecessor certificate. The
								// pair is TRUE the moment any cut-tree node u
								// outside subtree(la) carries an edge into ANY
								// witness: u's tree path avoids lb (cut) and la
								// (outside its subtree), and the reference accepts
								// a generated witness before filtering it — even
								// one equal to la. P = ∪ preds(witnesses) depends
								// only on the a-class, so the per-pair test is one
								// interval rank query on the cut tree.
								if !dec {
									if !st.pOK {
										st.pOK = true
										st.p = make([]uint64, lw)
										lt := transpose()
										for wi, word := range tla {
											for ; word != 0; word &= word - 1 {
												r := lt.Row(wi<<6 + bits.TrailingZeros64(word))
												for i := range st.p {
													st.p[i] |= r[i]
												}
											}
										}
									}
									if st.eP != lepoch {
										st.eP = lepoch
										st.wP.build(st.p, cvis, ctin, tw)
									}
									if st.wP.total > 0 &&
										coveredCount(&st.wP, cvis, ctin, ctout, la, la) < st.wP.total {
										dec, res = true, true
									}
								}
							}

							// Tier 2: the exact per-pair search.
							if !dec {
								res = df.AvoidReach(seeds, lb, la, tl.Row(la))
							}
							if !res {
								continue
							}

							if con.Removed != nil {
								// Stage 2 runs at cell granularity: the removal
								// data (cover, conflict rows, witness rows) is
								// class-invariant, so one decision usually covers
								// every pair of the (a-class, target class) cell.
								// The screen: a cover untouched by the shared
								// tree's global uncut reach cannot remove any
								// pair. Then two exact searches bracket the cell:
								// blocking BOTH whole classes under-approximates
								// blocking just {a, b}, so a hit proves the cell
								// TRUE; blocking neither endpoint and widening
								// the targets to the whole a-class
								// over-approximates every pair, so a miss proves
								// the cell FALSE. Only cells the bracket cannot
								// settle pay per-pair searches.
								if st.e2 != bepoch {
									st.e2 = bepoch
									covG := con.RemovedCover(a, gb, sc.cover)
									if visGEp != tepoch {
										visGEp = tepoch
										for i := range visG {
											visG[i] = 0
										}
										for wi, word := range flowB.vis {
											for ; word != 0; word &= word - 1 {
												graph.BitSet(visG, int(members[wi<<6+bits.TrailingZeros64(word)]))
											}
										}
									}
									covHit := false
									for i, w := range visG {
										if covG[i]&mask[i]&w != 0 {
											covHit = true
											break
										}
									}
									if !covHit {
										st.s2 = s2Keep // no removable access reachable
									} else {
										if st.aG == nil {
											st.aG = make([]uint64, len(mask))
											for _, v := range byClass[lcOf[la]] {
												graph.BitSet(st.aG, int(members[v]))
											}
										}
										// Drop screen: every removal-stage search —
										// bracket passes and per-pair residues alike —
										// seeds from the target's conflict row and so
										// reaches only within the group's uncut reach.
										// A cell none of whose surviving witnesses
										// (outside the cover, or exempt as the
										// a-class) is uncut-reachable drops outright.
										ta := dirIn.Row(a)
										survReach := false
										for i, w := range visG {
											t := ta[i] & mask[i]
											if s := t&^covG[i] | t&st.aG[i]; s&w != 0 {
												survReach = true
												break
											}
										}
										if !survReach {
											st.s2 = s2Drop
										} else if gd == nil {
											st.s2 = s2PerPair
										} else {
											if bGEp != bepoch {
												bGEp = bepoch
												for i := range bG {
													bG[i] = 0
												}
												for _, v := range byClass[bc] {
													graph.BitSet(bG, int(members[v]))
												}
											}
											var sparse bool
											slBuf, sparse = survivorList(mask, covG, slBuf, sparseCap)
											if sparse {
												if sbS == nil {
													sbS = make([]uint64, len(mask))
													tbS = make([]uint64, len(mask))
													vbS = make([]uint64, len(mask))
												}
												selfT = selfT[:0]
												for _, v := range byClass[lcOf[la]] {
													if gv := int(members[v]); graph.BitGet(ta, gv) {
														selfT = append(selfT, int32(gv))
													}
												}
												st.s2, sc.queue = sparseCellRestrict(gd, ta, dirOut.Row(gb), st.aG, bG, slBuf, selfT, sbS, tbS, vbS, sc.queue)
											} else {
												st.s2 = cellRestrict(gd, mask, covG, ta, dirOut.Row(gb), st.aG, bG, sc.vis, sc.teff, sc.queue)
											}
										}
									}
								}
								if st.s2 == s2Drop {
									continue
								}
								if st.s2 == s2PerPair {
									if gd != nil {
										covG := con.RemovedCover(a, gb, sc.cover)
										var hitP bool
										sc.queue, hitP = denseRestrict(gd, mask, covG, dirIn.Row(a), dirOut.Row(gb), a, gb, sc.vis, sc.teff, sc.queue)
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
							}
							graph.BitSet(row, a)
						}
					}
				}
			}
		}
	}

	nw := 1
	if nl >= classFanoutMin {
		nw = WorkerCount(len(groups))
	}
	solvers := make([]func(g *tgroup), nw)
	ParallelFor(len(groups), nw, func(wk, gi int) {
		if solvers[wk] == nil {
			wsc := sc
			if wk > 0 {
				wsc = newRegionScratch(len(sc.localOf))
			}
			solvers[wk] = newSolver(wsc)
		}
		solvers[wk](groups[gi])
	})
	return true
}

// classFanoutMin is the region size from which classSolve fans its tree
// groups out across workers; smaller regions solve serially.
const classFanoutMin = 1024

// classSolveUsable reports whether the constraint shape supports the
// class-condensed engine: an access classing must exist, per-pair
// filters are opaque to sharing, and the Removed stage needs cover rows
// to localize the removal set per class cell.
func classSolveUsable(con Constraints, filter func(a, b int) bool) bool {
	return con.AccessClass != nil && filter == nil &&
		(con.Removed == nil || con.RemovedCover != nil)
}

// aclsSlot is the per-a-class state of the current tree group, target
// class, and target access: tier-0/1 state on the shared tree, cut-tree
// witness stats, the witness-predecessor row, and the Removed stage's
// cell decision. Epoch fields tie each part to the tree group (e1),
// target class (e2), or target access (eC, eP) it was built for; buffers
// are allocated on first use and reused across groups.
type aclsSlot struct {
	e1 int32
	sw bool // some seed is itself a witness: whole cell TRUE
	w1 witStats

	// Witnesses outside subtree(lb) on the shared tree, summarized per
	// (a-class, target access): count and entry-time extremes. The tier-1
	// per-pair test reduces to "does subtree(la) bracket [xMin, xMax]".
	eX         int32
	xOut       int32
	xMin, xMax int32

	eC   int32
	wCut witStats

	pOK bool
	p   []uint64 // union of the witnesses' predecessor rows
	eP  int32
	wP  witStats

	e2 int32
	s2 uint8    // cell decision for the Removed stage
	aG []uint64 // global members of this a-class
}

// Cell decisions for the Removed stage.
const (
	s2Keep    uint8 = iota // every pair of the cell survives removal
	s2Drop                 // no pair survives
	s2PerPair              // bracket inconclusive: exact per-pair search
)

// sparseCap bounds the survivor count under which the Removed-stage
// bracket runs on the survivor subgraph instead of the full-width sweeps.
const sparseCap = 128

// cellRestrict brackets one (a-class, b-class) cell of the Removed
// stage. The pessimistic search blocks every member of both classes as
// interior — an under-approximation of any single pair's search, which
// blocks only {a, b} — so reaching a target proves all pairs TRUE. The
// optimistic search blocks neither endpoint and accepts the whole
// a-class as exempt targets — an over-approximation — so exhausting it
// proves all pairs FALSE. Targets are tested before the interior filter,
// matching the reference's removed-before-target ordering.
func cellRestrict(gd *mixedAdj, mask, cov, ta, drow, aG, bG, vis, teff []uint64, queue []int32) uint8 {
	// Pessimistic pass: interior = region complement ∪ cover ∪ both classes.
	any := false
	for i := range teff {
		t := ta[i] & mask[i] &^ cov[i]
		teff[i] = t
		any = any || t != 0
	}
	if any {
		for i := range vis {
			vis[i] = ^mask[i] | cov[i] | aG[i] | bG[i]
		}
		queue = queue[:0]
		if restrictSweep(gd, drow, mask, vis, teff, &queue) {
			return s2Keep
		}
	}
	// Optimistic pass: interior = region complement ∪ cover only; targets
	// widened by the a-class exemption; the b-self continuation widened to
	// any self-conflicting member of the b-class.
	any = false
	for i := range teff {
		t := (ta[i]&^cov[i] | ta[i]&aG[i]) & mask[i]
		teff[i] = t
		any = any || t != 0
	}
	if !any {
		return s2Drop
	}
	for i := range vis {
		vis[i] = ^mask[i] | cov[i]
	}
	queue = queue[:0]
	for wi := range vis {
		for m := drow[wi] & bG[wi] & mask[wi]; m != 0; m &= m - 1 {
			b := wi<<6 + bits.TrailingZeros64(m)
			if !graph.BitGet(vis, b) {
				graph.BitSet(vis, b)
				queue = append(queue, int32(b))
			}
		}
	}
	if restrictSweep(gd, drow, mask, vis, teff, &queue) {
		return s2PerPair
	}
	return s2Drop
}

// survivorList collects the region nodes outside the cover, bailing out
// once more than max survive (the dense bracket is cheaper then).
func survivorList(mask, cov []uint64, sl []int32, max int) ([]int32, bool) {
	sl = sl[:0]
	for wi, w := range mask {
		for m := w &^ cov[wi]; m != 0; m &= m - 1 {
			if len(sl) == max {
				return sl, false
			}
			sl = append(sl, int32(wi<<6+bits.TrailingZeros64(m)))
		}
	}
	return sl, true
}

// sparseCellRestrict is cellRestrict on the survivor subgraph: when the
// cover blocks all but a handful of region nodes, both bracket passes can
// only ever visit survivors, so the full-width sweeps collapse to list
// walks over sl (= mask &^ cov). selfT lists the a-class members that are
// witnesses — the optimistic pass's extra targets, which stay targets
// even when covered. sb/tb/vb are zeroed scratch bitsets of global width,
// left zeroed again on return.
func sparseCellRestrict(gd *mixedAdj, ta, drow, aG, bG []uint64,
	sl, selfT []int32, sb, tb, vb []uint64, queue []int32) (uint8, []int32) {
	for _, v := range sl {
		graph.BitSet(sb, int(v))
	}
	clean := func() {
		for _, v := range sl {
			graph.BitClear(sb, int(v))
			graph.BitClear(tb, int(v))
		}
		for _, v := range selfT {
			graph.BitClear(tb, int(v))
		}
	}
	// Pessimistic pass: targets are the surviving witnesses; expansion
	// only through survivors outside both classes. A hit proves every
	// pair of the cell survives removal (blocking whole classes
	// under-approximates blocking one endpoint pair).
	hit := false
	nt := 0
	for _, v := range sl {
		if graph.BitGet(ta, int(v)) {
			graph.BitSet(tb, int(v))
			nt++
			if graph.BitGet(drow, int(v)) {
				hit = true // seed-step target, as restrictSweep's first loop
			}
		}
	}
	if nt > 0 && !hit {
		queue = queue[:0]
		for _, v := range sl {
			if graph.BitGet(drow, int(v)) && !graph.BitGet(aG, int(v)) && !graph.BitGet(bG, int(v)) {
				graph.BitSet(vb, int(v))
				queue = append(queue, v)
			}
		}
		hit = sparseSweep(gd, aG, bG, true, nil, sl, sb, tb, vb, &queue)
		for _, v := range sl {
			graph.BitClear(vb, int(v))
		}
	}
	if hit {
		clean()
		return s2Keep, queue
	}
	// Optimistic pass: interior is the cover alone, targets widened by the
	// a-class exemption; exhausting it proves no pair survives.
	for _, v := range selfT {
		graph.BitSet(tb, int(v))
		if graph.BitGet(drow, int(v)) {
			hit = true
		}
	}
	if nt == 0 && len(selfT) == 0 {
		clean()
		return s2Drop, queue
	}
	if !hit {
		queue = queue[:0]
		for _, v := range sl {
			if graph.BitGet(drow, int(v)) {
				graph.BitSet(vb, int(v))
				queue = append(queue, v)
			}
		}
		hit = sparseSweep(gd, nil, nil, false, selfT, sl, sb, tb, vb, &queue)
		for _, v := range sl {
			graph.BitClear(vb, int(v))
		}
	}
	clean()
	if hit {
		return s2PerPair, queue
	}
	return s2Drop, queue
}

// sparseSweep is restrictSweep over the survivor subgraph: per queue node
// the dense-row scan walks the survivor list instead of the full width,
// and extraT (targets outside the survivor set — the optimistic pass's
// covered a-class members) is tested against the raw row, matching the
// reference's targets-before-interior ordering.
func sparseSweep(gd *mixedAdj, aG, bG []uint64, pess bool,
	extraT, sl []int32, sb, tb, vb []uint64, queue *[]int32) bool {
	q := *queue
	for qi := 0; qi < len(q); qi++ {
		u := int(q[qi])
		row := gd.dir.Row(u)
		for _, x := range extraT {
			if graph.BitGet(row, int(x)) {
				*queue = q
				return true
			}
		}
		for _, v32 := range sl {
			v := int(v32)
			if !graph.BitGet(row, v) {
				continue
			}
			if graph.BitGet(tb, v) {
				*queue = q
				return true
			}
			if graph.BitGet(vb, v) || (pess && (graph.BitGet(aG, v) || graph.BitGet(bG, v))) {
				continue
			}
			graph.BitSet(vb, v)
			q = append(q, v32)
		}
		for _, v := range gd.adj[u] {
			if graph.BitGet(tb, v) {
				*queue = q
				return true
			}
			if !graph.BitGet(sb, v) || graph.BitGet(vb, v) ||
				(pess && (graph.BitGet(aG, v) || graph.BitGet(bG, v))) {
				continue
			}
			graph.BitSet(vb, v)
			q = append(q, int32(v))
		}
	}
	*queue = q
	return false
}

// restrictSweep runs the shared body of both cellRestrict passes: one
// seed step over the target class's conflict row, then a masked BFS on
// the global mixed adjacency, accepting any teff target on generation.
// queue may arrive pre-seeded (the b-self continuation).
func restrictSweep(gd *mixedAdj, drow, mask, vis, teff []uint64, queue *[]int32) bool {
	q := *queue
	for wi := range vis {
		sw := drow[wi] & mask[wi]
		if sw == 0 {
			continue
		}
		if sw&teff[wi] != 0 {
			*queue = q
			return true
		}
		nw := sw &^ vis[wi]
		vis[wi] |= nw
		for ; nw != 0; nw &= nw - 1 {
			q = append(q, int32(wi<<6+bits.TrailingZeros64(nw)))
		}
	}
	for qi := 0; qi < len(q); qi++ {
		u := int(q[qi])
		row := gd.dir.Row(u)
		for wi := range vis {
			if row[wi]&teff[wi] != 0 {
				*queue = q
				return true
			}
			nw := row[wi] &^ vis[wi]
			if nw == 0 {
				continue
			}
			vis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				q = append(q, int32(wi<<6+bits.TrailingZeros64(nw)))
			}
		}
		for _, v := range gd.adj[u] {
			if graph.BitGet(teff, v) {
				*queue = q
				return true
			}
			if !graph.BitGet(vis, v) {
				graph.BitSet(vis, v)
				q = append(q, int32(v))
			}
		}
	}
	*queue = q
	return false
}

// classFlow runs one uncut BFS over the local dense adjacency with an
// optional blocked set folded into visited up front (blocked nodes are
// never ordered, expanded, or given tree positions), then assigns
// preorder entry/exit times over the first-visit tree. Subtree(v) is the
// time interval [tin[v], tout[v]]; intervals of distinct nodes are
// nested or disjoint, which is what makes witness counting additive.
type classFlow struct {
	nl, lw     int
	vis        []uint64
	order      []int32
	parent     []int32
	tin, tout  []int32
	head, next []int32
	stack      []int32

	// reachCutFrom scratch: subtree members, their bitset, full order.
	subs   []int32
	smask  []uint64
	forder []int32
}

func newClassFlow(nl int) *classFlow {
	return &classFlow{
		nl: nl, lw: graph.WordsFor(nl),
		vis:    make([]uint64, graph.WordsFor(nl)),
		parent: make([]int32, nl),
		tin:    make([]int32, nl+1), tout: make([]int32, nl+1),
		head: make([]int32, nl+1), next: make([]int32, nl),
	}
}

// reachCutFrom derives the tree for "reachable while avoiding lb" from
// base, the same seed row's uncut tree, touching only subtree(lb): every
// node outside it keeps its base path (which avoids lb by the nesting of
// first-visit intervals), so the cut can only unhook subtree(lb) members,
// and each of those is re-entered iff some surviving node carries an edge
// into it. The visited set is the exact cut BFS fixpoint; tree paths stay
// legal lb-avoiding paths. Callers must handle lb-as-seed separately
// (the reference expands such a seed, making the cut tree identical to
// base) — here lb is simply removed.
func (f *classFlow) reachCutFrom(L, lt *graph.BitMatrix, base *classFlow, lb int) {
	copy(f.vis, base.vis)
	f.order = f.order[:0]
	if !graph.BitGet(base.vis, lb) {
		// lb unreached: cutting it changes nothing; reuse base's layout.
		copy(f.parent, base.parent)
		f.forder = append(f.forder[:0], base.order...)
		f.buildIntervals(f.forder)
		return
	}
	if f.smask == nil {
		f.smask = make([]uint64, f.lw)
	}
	// Collect subtree(lb) via base's child lists and unhook it.
	f.subs = append(f.subs[:0], int32(lb))
	for i := 0; i < len(f.subs); i++ {
		for c := base.head[f.subs[i]]; c != -1; c = base.next[c] {
			f.subs = append(f.subs, c)
		}
	}
	for _, v := range f.subs {
		graph.BitClear(f.vis, int(v))
		graph.BitSet(f.smask, int(v))
	}
	copy(f.parent, base.parent)
	// Re-entry scan: a subtree member (never lb itself) with any surviving
	// predecessor is reachable again through it.
	for _, v := range f.subs {
		if int(v) == lb {
			continue
		}
		for wi, word := range lt.Row(int(v)) {
			if m := word & f.vis[wi]; m != 0 {
				f.parent[v] = int32(wi<<6 + bits.TrailingZeros64(m))
				graph.BitSet(f.vis, int(v))
				graph.BitClear(f.smask, int(v))
				f.order = append(f.order, v)
				break
			}
		}
	}
	// Fixpoint: re-entered members may reach deeper unhooked ones.
	for i := 0; i < len(f.order); i++ {
		u := f.order[i]
		row := L.Row(int(u))
		for wi := range f.smask {
			nw := row[wi] & f.smask[wi]
			if nw == 0 {
				continue
			}
			f.smask[wi] &^= nw
			f.vis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				v := int32(wi<<6 + bits.TrailingZeros64(nw))
				f.parent[v] = u
				f.order = append(f.order, v)
			}
		}
	}
	for _, v := range f.subs {
		graph.BitClear(f.smask, int(v)) // leave the scratch mask clean
	}
	// Full discovery order = base order filtered to survivors; parents of
	// survivors outside the subtree are themselves outside it, so the
	// linking below always sees a parent before its children is not
	// required — only that every visited node appears exactly once.
	f.forder = f.forder[:0]
	for _, v := range base.order {
		if graph.BitGet(f.vis, int(v)) {
			f.forder = append(f.forder, v)
		}
	}
	f.buildIntervals(f.forder)
}

func (f *classFlow) reach(L *graph.BitMatrix, seedsRow, blocked []uint64) {
	f.order = f.order[:0]
	if blocked != nil {
		copy(f.vis, blocked)
	} else {
		for i := range f.vis {
			f.vis[i] = 0
		}
	}
	root := int32(f.nl)
	for wi := range f.vis {
		nw := seedsRow[wi] &^ f.vis[wi]
		if nw == 0 {
			continue
		}
		f.vis[wi] |= nw
		for ; nw != 0; nw &= nw - 1 {
			v := int32(wi<<6 + bits.TrailingZeros64(nw))
			f.parent[v] = root
			f.order = append(f.order, v)
		}
	}
	for i := 0; i < len(f.order); i++ {
		row := L.Row(int(f.order[i]))
		u := f.order[i]
		for wi := range f.vis {
			nw := row[wi] &^ f.vis[wi]
			if nw == 0 {
				continue
			}
			f.vis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				v := int32(wi<<6 + bits.TrailingZeros64(nw))
				f.parent[v] = u
				f.order = append(f.order, v)
			}
		}
	}
	f.buildIntervals(f.order)
}

// buildIntervals lays the first-visit tree over the given discovery
// order (every visited node exactly once) out as preorder entry/exit
// times under the virtual root.
func (f *classFlow) buildIntervals(order []int32) {
	root := int32(f.nl)
	f.head[root] = -1
	for _, v := range order {
		f.head[v] = -1
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		p := f.parent[v]
		f.next[v] = f.head[p]
		f.head[p] = v
	}
	t := int32(0)
	f.stack = append(f.stack[:0], root)
	for len(f.stack) > 0 {
		v := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		if v < 0 {
			f.tout[-(v + 1)] = t
			t++
			continue
		}
		f.tin[v] = t
		t++
		f.stack = append(f.stack, -(v + 1))
		for c := f.head[v]; c != -1; c = f.next[c] {
			f.stack = append(f.stack, c)
		}
	}
}

// witStats is the witness-position index of one (a-class, tree) pair: a
// bitset over tree entry times with per-word prefix popcounts, so any
// subtree's witness count is a two-rank difference.
type witStats struct {
	wbits []uint64
	pref  []int32
	total int32
	// Global entry-time extremes over all witnesses (valid when total > 0).
	tmin0, tmax0 int32
}

func (st *witStats) build(tla, vis []uint64, tin []int32, tw int) {
	if st.wbits == nil {
		st.wbits = make([]uint64, tw)
		st.pref = make([]int32, tw+1)
	}
	for i := range st.wbits {
		st.wbits[i] = 0
	}
	for wi := range vis {
		for m := tla[wi] & vis[wi]; m != 0; m &= m - 1 {
			y := wi<<6 + bits.TrailingZeros64(m)
			graph.BitSet(st.wbits, int(tin[y]))
		}
	}
	run := int32(0)
	loW, hiW := -1, -1
	for i, wd := range st.wbits {
		st.pref[i] = run
		run += int32(bits.OnesCount64(wd))
		if wd != 0 {
			if loW == -1 {
				loW = i
			}
			hiW = i
		}
	}
	st.pref[tw] = run
	st.total = run
	if run > 0 {
		st.tmin0 = int32(loW<<6 + bits.TrailingZeros64(st.wbits[loW]))
		st.tmax0 = int32(hiW<<6 + 63 - bits.LeadingZeros64(st.wbits[hiW]))
	}
}

// selectKth returns the entry time of the k-th witness, 1-based (caller
// guarantees 1 <= k <= total): binary search on the per-word prefix
// counts, then an in-word select.
func (st *witStats) selectKth(k int32) int32 {
	lo, hi := 0, len(st.pref)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if st.pref[mid] < k {
			lo = mid
		} else {
			hi = mid
		}
	}
	w := st.wbits[lo]
	for j := k - st.pref[lo]; j > 1; j-- {
		w &= w - 1
	}
	return int32(lo<<6 + bits.TrailingZeros64(w))
}

// outside summarizes the witnesses lying OUTSIDE subtree(lb): their count
// and their entry-time extremes. With first-visit intervals, a witness is
// outside iff its entry time falls outside [tin[lb], tout[lb]], so the
// extremes come from the global extremes when those already escape the
// interval and from one rank-directed select otherwise.
func (st *witStats) outside(vis []uint64, tin, tout []int32, lb int) (count, tmin, tmax int32) {
	if !graph.BitGet(vis, lb) {
		return st.total, st.tmin0, st.tmax0
	}
	below := st.cumBelow(tin[lb])
	aboveStart := st.cumBelow(tout[lb] + 1)
	count = st.total - (aboveStart - below)
	if count == 0 {
		return 0, 0, 0
	}
	if below > 0 {
		tmin = st.tmin0
	} else {
		tmin = st.selectKth(aboveStart + 1) // first witness past the subtree
	}
	if aboveStart < st.total {
		tmax = st.tmax0
	} else {
		tmax = st.selectKth(below) // last witness before the subtree
	}
	return count, tmin, tmax
}

// cumBelow counts witness entry times strictly below t.
func (st *witStats) cumBelow(t int32) int32 {
	wi := int(t >> 6)
	r := st.pref[wi]
	if s := uint(t) & 63; s != 0 {
		r += int32(bits.OnesCount64(st.wbits[wi] & (1<<s - 1)))
	}
	return r
}

// coveredCount counts the witnesses of st lying in subtree(la) ∪
// subtree(lb) of the tree described by (vis, tin, tout); an unreached
// node has no subtree. First-visit intervals are nested or disjoint, so
// the union is interval arithmetic, never enumeration.
func coveredCount(st *witStats, vis []uint64, tin, tout []int32, la, lb int) int32 {
	ra, rb := graph.BitGet(vis, la), graph.BitGet(vis, lb)
	var ca, cb int32
	if ra {
		ca = st.cumBelow(tout[la]+1) - st.cumBelow(tin[la])
	}
	if rb {
		cb = st.cumBelow(tout[lb]+1) - st.cumBelow(tin[lb])
	}
	if ra && rb {
		if tin[la] <= tin[lb] && tout[lb] <= tout[la] {
			return ca
		}
		if tin[lb] <= tin[la] && tout[la] <= tout[lb] {
			return cb
		}
	}
	return ca + cb
}

// inSubtree reports whether y lies in subtree(v); both must be reached.
func inSubtree(vis []uint64, tin, tout []int32, v, y int) bool {
	return graph.BitGet(vis, v) && tin[v] <= tin[y] && tout[y] <= tout[v]
}

func wordsEqual64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	return true
}
