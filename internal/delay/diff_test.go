package delay

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/conflict"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
)

// genFn builds the progen program for a seed, or nil when the seed does
// not produce a buildable program.
func genFn(seed int64) *ir.Fn {
	opts := progen.Options{
		Procs: 4, MaxPhases: 3, MaxStmts: 6, MaxDepth: 2,
		Arrays: 3, Scalars: 3, Events: 2, Locks: 2,
	}
	prog, err := source.Parse(progen.Generate(seed, opts))
	if err != nil {
		return nil
	}
	info, err := sem.Check(prog)
	if err != nil {
		return nil
	}
	fn, err := ir.Build(info, ir.BuildOptions{Procs: 4})
	if err != nil {
		return nil
	}
	return fn
}

// diffVariants returns the constraint variants the differential tests
// exercise, spanning every engine mode: plain, oriented (ConflictDir and
// its DirRows bit-matrix form), pair-filtered, endpoint-restricted in both
// modes (the sparse include list drives the reverse-sweep flip), per-pair
// (Removed, with and without a RemovedCover screen), combinations, and the
// exact search. Hooks are synthetic but deterministic.
func diffVariants(fn *ir.Fn, cs *conflict.Set) []struct {
	name string
	con  Constraints
} {
	n := len(fn.Accesses)
	isSync := func(a, b int) bool {
		return fn.Accesses[a].Kind.IsSync() || fn.Accesses[b].Kind.IsSync()
	}
	cdir := func(x, y int) bool { return (x+y)%3 != 0 || x <= y }
	rem := func(a, b, z int) bool { return (a+2*b+3*z)%5 == 0 }
	cover := func(a, b int, scratch []uint64) []uint64 {
		for i := range scratch {
			scratch[i] = 0
		}
		for z := 0; z < n; z++ {
			if rem(a, b, z) {
				graph.BitSet(scratch, z)
			}
		}
		return scratch
	}
	var sparse []int
	for i := 0; i < n; i += 7 {
		sparse = append(sparse, i)
	}
	dirRows := graph.NewBitMatrix(n)
	for x := 0; x < n; x++ {
		for _, y := range cs.Partners(x) {
			if cdir(x, y) {
				dirRows.Set(x, y)
			}
		}
	}
	return []struct {
		name string
		con  Constraints
	}{
		{"plain", Constraints{}},
		{"dir", Constraints{ConflictDir: cdir}},
		{"dirrows", Constraints{DirRows: dirRows}},
		{"filter", Constraints{PairFilter: isSync}},
		{"endpoints-inc", Constraints{Endpoints: sparse}},
		{"endpoints-exc", Constraints{Endpoints: sparse, EndpointsMode: EndpointsExclude}},
		{"endpoints-inc+dir", Constraints{Endpoints: sparse, ConflictDir: cdir}},
		{"removed", Constraints{Removed: rem}},
		{"removed+cover", Constraints{Removed: rem, RemovedCover: cover}},
		{"dir+removed+filter", Constraints{ConflictDir: cdir, Removed: rem, PairFilter: isSync}},
		{"dirrows+removed+cover+inc", Constraints{DirRows: dirRows, Removed: rem, RemovedCover: cover, Endpoints: sparse}},
		{"exact", Constraints{Exact: true, MaxExactNodes: 1 << 20}},
	}
}

func pairsEqual(t *testing.T, label string, got, want *Set) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: got %d pairs, reference has %d\ngot:\n%swant:\n%s",
			label, got.Size(), want.Size(), got, want)
	}
	for _, p := range want.Pairs() {
		if !got.Has(p.A, p.B) {
			t.Fatalf("%s: reference pair [%d,%d] missing from batched engine", label, p.A, p.B)
		}
	}
}

// TestBatchedMatchesReference proves the regionized engine (the default)
// and the whole-graph batched engine both compute delay sets
// pair-identical to the per-pair reference search, across progen seeds and
// every constraint variant.
func TestBatchedMatchesReference(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 80; seed++ {
		fn := genFn(seed)
		if fn == nil || len(fn.Accesses) == 0 {
			continue
		}
		ag := ir.BuildAccessGraph(fn)
		cs := conflict.Compute(fn)
		for _, v := range diffVariants(fn, cs) {
			if v.con.Exact && len(fn.Accesses) > 18 {
				continue // the simple-path search is exponential on dense
				// progen conflict graphs; keep it affordable
			}
			label := fmt.Sprintf("seed %d %s (n=%d)", seed, v.name, len(fn.Accesses))
			got := Compute(ag, cs, v.con)
			ref := v.con
			ref.Reference = true
			want := Compute(ag, cs, ref)
			pairsEqual(t, label, got, want)
			whole := v.con
			whole.Engine = EngineWhole
			pairsEqual(t, label+" [whole]", Compute(ag, cs, whole), want)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d buildable seeds, want >= 50", checked)
	}
}

// TestComputeDeterministicAcrossWorkers locks down that the worker count
// never changes the computed set: results land in index-addressed slots
// and merge in pair order. Beyond the small-seed variants it runs a
// class-solved oriented pass on the 2k tier, whose largest region is past
// classFanoutMin and splits into several tree groups, so the groups
// really do fan out across workers.
func TestComputeDeterministicAcrossWorkers(t *testing.T) {
	defer func(w int) { Workers = w }(Workers)
	requireSame := func(label string, ag *ir.AccessGraph, cs *conflict.Set, con Constraints) {
		t.Helper()
		Workers = 1
		seq := Compute(ag, cs, con)
		for _, nw := range []int{2, 8} {
			Workers = nw
			par := Compute(ag, cs, con)
			if seq.byB != nil && par.byB != nil {
				// Dense sets: equal target rows are equal pairs in equal order.
				if !wordsEqual64(par.byB.Words(), seq.byB.Words()) {
					t.Fatalf("%s: target rows differ at %d workers", label, nw)
				}
				continue
			}
			pairsEqual(t, fmt.Sprintf("%s workers=%d", label, nw), par, seq)
			if fmt.Sprint(par.Pairs()) != fmt.Sprint(seq.Pairs()) {
				t.Fatalf("%s: pair ordering differs at %d workers", label, nw)
			}
		}
	}
	fn := genFn(3)
	for seed := int64(3); fn == nil; seed++ {
		fn = genFn(seed)
	}
	ag := ir.BuildAccessGraph(fn)
	cs := conflict.Compute(fn)
	for _, v := range diffVariants(fn, cs) {
		requireSame(v.name, ag, cs, v.con)
	}

	if testing.Short() {
		return
	}
	fn = tierFn(t, "acc2048")
	ag = ir.BuildAccessGraph(fn)
	cs = conflict.Compute(fn)
	con := groupOrientedClassed(cs, len(fn.Accesses))
	if nl, groups := largestRegionTreeGroups(ag, con); nl < classFanoutMin || groups < 2 {
		t.Fatalf("largest region has %d accesses and %d tree groups; the fan-out needs >= %d and >= 2",
			nl, groups, classFanoutMin)
	}
	requireSame("acc2048 class-solved oriented", ag, cs, con)
}

// groupOrientedClassed is a class-solved oriented constraint: conflict
// edges run from lower to higher (or equal) conflict group, and the access
// classing is the conflict group. Both depend on the group alone, so every
// class shares its oriented rows and columns, as AccessClass requires.
func groupOrientedClassed(cs *conflict.Set, n int) Constraints {
	dir := graph.NewBitMatrix(n)
	cls := make([]int32, n)
	for x := 0; x < n; x++ {
		cls[x] = cs.GroupOf(x)
		for _, y := range cs.Partners(x) {
			if cs.GroupOf(x) <= cs.GroupOf(y) {
				dir.Set(x, y)
			}
		}
	}
	return Constraints{DirRows: dir, AccessClass: cls}
}

// largestRegionTreeGroups returns the size of the largest region of con's
// mixed graph and the number of classSolve tree groups in it: the distinct
// in-region conflict rows over its access classes.
func largestRegionTreeGroups(ag *ir.AccessGraph, con Constraints) (nl, groups int) {
	n := len(ag.G.Adj)
	cd := graph.Condense(n, func(u int, visit func(v int32)) {
		for _, v := range ag.G.Adj[u] {
			visit(int32(v))
		}
		for wi, word := range con.DirRows.Row(u) {
			for ; word != 0; word &= word - 1 {
				visit(int32(wi<<6 + bits.TrailingZeros64(word)))
			}
		}
	})
	var members []int32
	for _, m := range cd.Members {
		if len(m) > len(members) {
			members = m
		}
	}
	mask := make([]uint64, graph.WordsFor(n))
	for _, v := range members {
		graph.BitSet(mask, int(v))
	}
	seen := make(map[int32]bool)
	rows := make(map[string]bool)
	for _, v := range members {
		if c := con.AccessClass[v]; !seen[c] {
			seen[c] = true
			row := con.DirRows.Row(int(v))
			key := make([]byte, 0, 8*len(row))
			for i, word := range row {
				key = binary.LittleEndian.AppendUint64(key, word&mask[i])
			}
			rows[string(key)] = true
		}
	}
	return len(members), len(rows)
}
