package workloads

import (
	"fmt"
	"slices"

	"repro/internal/dag"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xprng"
)

// buildQuicksort constructs fine-grained parallel quicksort with a
// PARALLEL partition, the formulation fine-grained runtimes of the paper's
// era actually used (a serial partition would Amdahl-bottleneck the top of
// the tree and erase any scheduler effect):
//
//	count:   spawn tree over ~Grain blocks of the source range; each task
//	         reads its block and counts keys below/above the pivot;
//	plan:    a small sequential task prefix-sums the per-block counts into
//	         scatter offsets;
//	scatter: the same spawn tree re-reads each block and writes its keys to
//	         their partitioned positions in the other buffer;
//	recurse: the two sides sort in parallel (ping-ponging buffers), leaves
//	         finished by the recorded leaf sort with a parity-fixing copy
//	         when a side lands in the wrong buffer.
//
// The partition's split point is data-dependent, so the DAG shape is
// discovered by a dry run at build time: identical kernels run against a
// throwaway copy of the data (recordings discarded), and the deterministic
// live run reproduces the same splits (checked at execution).
//
// Cache behavior mirrors mergesort level reuse — scatter writes what the
// children's counts immediately re-read — with quicksort's irregular,
// data-dependent subtree sizes on top: the paper's irregular
// divide-and-conquer representative.
func buildQuicksort(s Spec) *Instance {
	space := mem.NewSpace(mem.SpaceID(s.SpaceID))
	a := trace.NewArray[int64](space, "keys", s.N)
	b := trace.NewArray[int64](space, "scratch", s.N)
	rng := xprng.New(s.Seed)
	initial := make([]int64, s.N)
	for i := range initial {
		initial[i] = int64(rng.Uint64() >> 1)
	}
	copy(a.Data, initial)

	// Dry-run arrays to learn the recursion shape.
	drySpace := mem.NewSpace(0)
	dryA := trace.NewArray[int64](drySpace, "dryA", s.N)
	dryB := trace.NewArray[int64](drySpace, "dryB", s.N)
	copy(dryA.Data, initial)
	sorted := initial // Verify's reference, sorted once per Build
	slices.Sort(sorted)

	g := dag.New()
	root := g.AddNode("start", nil)
	sink := g.AddNode("done", nil)
	qb := &qsortBuilder{g: g, sink: sink, grain: s.Grain, a: a, b: b, dryA: dryA, dryB: dryB}
	qb.build(root, 0, s.N, true)

	return &Instance{
		Spec:  s,
		Graph: freeze(g),
		Space: space,
		Verify: func() error {
			return verifySorted(s.Name, a.Data, sorted)
		},
	}
}

// qsortBuilder carries the recursion state of the quicksort DAG builder.
type qsortBuilder struct {
	g          *dag.Graph
	sink       *dag.Node
	grain      int
	a, b       trace.Array[int64] // live buffers (a = primary, result lands here)
	dryA, dryB trace.Array[int64] // dry-run shadows
	throwaway  trace.Recorder
}

// build emits the subgraph sorting [lo, hi), whose live values currently sit
// in a (inA=true) or b. The final result must land in a.
func (q *qsortBuilder) build(parent *dag.Node, lo, hi int, inA bool) {
	n := hi - lo
	src, scratch := q.a, q.b
	if !inA {
		src, scratch = q.b, q.a
	}
	// Small ranges: recorded leaf sort. The result must end in a: when the
	// live values sit in b, the leaf sort's ping-pong target is "scratch"
	// from src's point of view, which IS a.
	if n <= q.grain || n < 4 {
		leaf := q.g.AddNode(fmt.Sprintf("qsort[%d:%d]", lo, hi), func(r *trace.Recorder) {
			recordedLeafSort(r, src.Slice(lo, hi), scratch.Slice(lo, hi), !inA)
		})
		q.g.AddEdge(parent, leaf)
		q.g.AddEdge(leaf, q.sink)
		return
	}

	drySrc, dryDst := q.dryA, q.dryB
	if !inA {
		drySrc, dryDst = q.dryB, q.dryA
	}

	// Dry-run the partition to learn the split.
	q.throwaway.Reset()
	pivot := choosePivot(&q.throwaway, drySrc, lo, hi)
	counts := splitRanges(lo, hi, q.grain)
	below := make([]int, len(counts))
	for i, blk := range counts {
		below[i] = countBelow(&q.throwaway, drySrc, blk.lo, blk.hi, pivot)
	}
	offB, offA := prefixOffsets(below, counts, lo)
	mid := offB[len(offB)-1] + lastBelow(below) // first index of the high side
	if mid <= lo || mid >= hi {
		// Degenerate pivot (all keys on one side): fall back to a leaf
		// sort of the whole range; with random data and median-of-three
		// this only occurs on tiny or pathological ranges.
		leaf := q.g.AddNode(fmt.Sprintf("qsort-flat[%d:%d]", lo, hi), func(r *trace.Recorder) {
			recordedLeafSort(r, src.Slice(lo, hi), scratch.Slice(lo, hi), !inA)
		})
		q.g.AddEdge(parent, leaf)
		q.g.AddEdge(leaf, q.sink)
		return
	}
	// Execute the dry scatter so recursion sees partitioned dry data.
	for i, blk := range counts {
		scatterBlock(&q.throwaway, drySrc, dryDst, blk.lo, blk.hi, pivot, offB[i], offA[i])
	}

	// Live DAG. The pivot is re-derived at run time (same data, same
	// kernel, same value); counts are re-computed per block and validated
	// against the dry run.
	entry := q.g.AddNode(fmt.Sprintf("part[%d:%d]", lo, hi), nil)
	q.g.AddEdge(parent, entry)

	countJoin := q.sinkNode("counted", lo, hi)
	for i, blk := range counts {
		i, blk := i, blk
		t := q.g.AddNode(fmt.Sprintf("count[%d:%d]", blk.lo, blk.hi), func(r *trace.Recorder) {
			p := choosePivot(r, src, lo, hi)
			if got := countBelow(r, src, blk.lo, blk.hi, p); got != below[i] {
				panic(fmt.Sprintf("quicksort: live count %d != dry %d for [%d:%d)", got, below[i], blk.lo, blk.hi))
			}
		})
		q.g.AddEdge(entry, t)
		q.g.AddEdge(t, countJoin)
	}
	scatterJoin := q.sinkNode("scattered", lo, hi)
	for i, blk := range counts {
		i, blk := i, blk
		t := q.g.AddNode(fmt.Sprintf("scatter[%d:%d]", blk.lo, blk.hi), func(r *trace.Recorder) {
			p := choosePivot(r, src, lo, hi)
			scatterBlock(r, src, scratch, blk.lo, blk.hi, p, offB[i], offA[i])
		})
		q.g.AddEdge(countJoin, t)
		q.g.AddEdge(t, scatterJoin)
	}

	q.build(scatterJoin, lo, mid, !inA)
	q.build(scatterJoin, mid, hi, !inA)
}

func (q *qsortBuilder) sinkNode(label string, lo, hi int) *dag.Node {
	return q.g.AddNode(fmt.Sprintf("%s[%d:%d]", label, lo, hi), nil)
}

// choosePivot reads three samples and returns their median. Always called
// with the same (src, lo, hi) by every task of one partition, so every task
// derives the identical pivot, and the probe loads model the shared reads a
// real implementation performs.
func choosePivot(r *trace.Recorder, src trace.Array[int64], lo, hi int) int64 {
	va := src.Get(r, lo)
	vb := src.Get(r, lo+(hi-lo)/2)
	vc := src.Get(r, hi-1)
	r.Compute(3)
	return median3(va, vb, vc)
}

// countBelow counts keys strictly below pivot in src[lo:hi), recording the
// scan.
func countBelow(r *trace.Recorder, src trace.Array[int64], lo, hi int, pivot int64) int {
	count := 0
	for i := lo; i < hi; i++ {
		r.Compute(1)
		if src.Get(r, i) < pivot {
			count++
		}
	}
	return count
}

// scatterBlock writes src[lo:hi) into dst: keys below the pivot starting at
// offB, the rest starting at offA, preserving block-relative order (stable
// within the partition).
func scatterBlock(r *trace.Recorder, src, dst trace.Array[int64], lo, hi int, pivot int64, offB, offA int) {
	ib, ia := offB, offA
	for i := lo; i < hi; i++ {
		v := src.Get(r, i)
		r.Compute(1)
		if v < pivot {
			dst.Set(r, ib, v)
			ib++
		} else {
			dst.Set(r, ia, v)
			ia++
		}
	}
}

// prefixOffsets converts per-block below-counts into per-block scatter
// offsets: block i's below-keys start at offB[i], its at-or-above keys at
// offA[i].
func prefixOffsets(below []int, blocks []splitRange, lo int) (offB, offA []int) {
	offB = make([]int, len(below))
	offA = make([]int, len(below))
	totalBelow := 0
	for _, c := range below {
		totalBelow += c
	}
	nextB := lo
	nextA := lo + totalBelow
	for i, blk := range blocks {
		offB[i] = nextB
		offA[i] = nextA
		nextB += below[i]
		nextA += (blk.hi - blk.lo) - below[i]
	}
	return offB, offA
}

func lastBelow(below []int) int {
	if len(below) == 0 {
		return 0
	}
	return below[len(below)-1]
}

// median3 returns the median of three keys.
func median3(a, b, c int64) int64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
