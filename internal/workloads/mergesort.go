package workloads

import (
	"fmt"
	"slices"

	"repro/internal/dag"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xprng"
)

// buildMergesort constructs the paper's Figure 1 benchmark: fine-grained
// parallel merge sort over N int64 keys.
//
// The computation is the classic divide-and-conquer DAG. Each recursion
// level sorts its two halves into the opposite buffer, then merges them
// back. In the fine-grained version the merge itself is parallel: the
// output is cut into ~Grain-sized segments, each merged by an independent
// task after co-ranking its boundaries. In the coarse variant (the paper's
// "written for SMPs" style, Finding 3), the merge is a single sequential
// task, so the top of the tree serializes and tasks are large and disjoint.
//
// The cache story: a subproblem of size s is sorted in the two children and
// immediately re-read by the merge. Sequential execution therefore enjoys
// reuse at every level with s below the L2 capacity. PDF's co-scheduling
// keeps all P cores inside one subproblem region at a time, preserving that
// reuse with the FULL shared L2 as the threshold; WS spreads cores over P
// disjoint subproblems, so each effectively owns L2/P bytes — fewer levels
// fit, more off-chip traffic. That mechanism is exactly what Figure 1
// measures.
func buildMergesort(s Spec, coarse bool) *Instance {
	space := mem.NewSpace(mem.SpaceID(s.SpaceID))
	a := trace.NewArray[int64](space, "keys", s.N)
	b := trace.NewArray[int64](space, "temp", s.N)
	rng := xprng.New(s.Seed)
	initial := make([]int64, s.N)
	for i := range initial {
		initial[i] = int64(rng.Uint64() >> 1)
	}
	copy(a.Data, initial)
	sorted := initial // Verify's reference, sorted once per Build
	slices.Sort(sorted)

	g := dag.New()
	root := g.AddNode("start", nil)
	exit, dstIsA := msortDAG(g, root, a, b, 0, s.N, s.Grain, coarse)
	_ = exit

	result := a
	if !dstIsA {
		result = b
	}
	return &Instance{
		Spec:  s,
		Graph: freeze(g),
		Space: space,
		Verify: func() error {
			return verifySorted(s.Name, result.Data, sorted)
		},
	}
}

// msortDAG builds the subtree sorting [lo, hi). The result lands in a or b
// depending on recursion depth parity; the function reports which (dstIsA).
// Returns the subtree's exit node.
//
// Child order fixes the 1DF numbering: left half, right half, then merge
// segments left to right — precisely the sequential mergesort order.
func msortDAG(g *dag.Graph, parent *dag.Node, a, b trace.Array[int64], lo, hi, grain int, coarse bool) (*dag.Node, bool) {
	n := hi - lo
	if n <= grain {
		leaf := g.AddNode(fmt.Sprintf("sort[%d:%d]", lo, hi), func(r *trace.Recorder) {
			recordedLeafSort(r, a.Slice(lo, hi), b.Slice(lo, hi), true)
		})
		g.AddEdge(parent, leaf)
		return leaf, false // leaves deposit into b
	}
	mid := lo + n/2
	split := g.AddNode(fmt.Sprintf("split[%d:%d]", lo, hi), nil)
	g.AddEdge(parent, split)
	leftExit, leftInA := msortDAG(g, split, a, b, lo, mid, grain, coarse)
	rightExit, rightInA := msortDAG(g, split, a, b, mid, hi, grain, coarse)
	if leftInA != rightInA {
		// Halves of equal depth parity: cannot happen with n/2 splits of
		// power-of-two-ish sizes differing by at most one level... guard
		// anyway: re-copy the shallower side. Simplest correct fix: copy
		// right into left's buffer with a recorded pass.
		fix := g.AddNode("rebuffer", func(r *trace.Recorder) {
			src, dst := a, b
			if leftInA {
				src, dst = b, a
			}
			for i := mid; i < hi; i++ {
				dst.Set(r, i, src.Get(r, i))
			}
		})
		g.AddEdge(rightExit, fix)
		rightExit = fix
		rightInA = leftInA
	}
	src, dst := b, a
	dstIsA := true
	if leftInA {
		src, dst = a, b
		dstIsA = false
	}
	left := src.Slice(lo, mid)
	right := src.Slice(mid, hi)

	join := g.AddNode(fmt.Sprintf("merged[%d:%d]", lo, hi), nil)
	if coarse {
		m := g.AddNode(fmt.Sprintf("merge[%d:%d]", lo, hi), func(r *trace.Recorder) {
			recordedMergeSegment(r, left, right, dst.Slice(lo, hi), 0, n)
		})
		g.AddEdge(leftExit, m)
		g.AddEdge(rightExit, m)
		g.AddEdge(m, join)
		return join, dstIsA
	}
	nseg := (n + grain - 1) / grain
	for seg := 0; seg < nseg; seg++ {
		k0 := seg * grain
		k1 := min(k0+grain, n)
		m := g.AddNode(fmt.Sprintf("merge[%d:%d]@%d", lo, hi, seg), func(r *trace.Recorder) {
			recordedMergeSegment(r, left, right, dst.Slice(lo, hi), k0, k1)
		})
		g.AddEdge(leftExit, m)
		g.AddEdge(rightExit, m)
		g.AddEdge(m, join)
	}
	return join, dstIsA
}

// freeze validates and freezes a workload graph, panicking on construction
// bugs (workload DAGs are correct by construction or not at all).
func freeze(g *dag.Graph) *dag.Graph {
	g.MustFreeze()
	return g
}
