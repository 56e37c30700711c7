package workloads

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xprng"
)

// buildScan constructs the classic two-phase parallel prefix sum (inclusive
// scan) of N int64 values into a second array. Phase 1 tasks compute block
// sums; a sequential middle task scans the per-block sums into offsets;
// phase 2 tasks re-read their block and write offset-adjusted prefixes.
//
// Scan is the paper's limited-reuse class (Finding 2, first case): every
// element is touched exactly twice, a full array apart in time, so with
// datasets beyond L2 capacity there is almost nothing for constructive
// sharing to exploit — PDF and WS should perform nearly identically, which
// is precisely what the t2-neutral experiment checks.
func buildScan(s Spec) *Instance {
	n := s.N
	grain := s.Grain
	blocks := splitRanges(0, n, grain)
	nblocks := len(blocks)
	blockOf := make(map[int]int, nblocks) // leaf lo -> block ordinal
	for i, b := range blocks {
		blockOf[b.lo] = i
	}

	space := mem.NewSpace(mem.SpaceID(s.SpaceID))
	in := trace.NewArray[int64](space, "in", n)
	out := trace.NewArray[int64](space, "out", n)
	sums := trace.NewArray[int64](space, "blocksums", nblocks)

	rng := xprng.New(s.Seed)
	for i := range in.Data {
		in.Data[i] = int64(rng.Intn(1000)) - 500
	}

	// Host reference.
	ref := make([]int64, n)
	var acc int64
	for i, v := range in.Data {
		acc += v
		ref[i] = acc
	}

	g := dag.New()
	root := g.AddNode("start", nil)
	// Phase 1: per-block sums, as a Cilk-style spawn tree over the input.
	mid := spawnTree(g, root, 0, n, grain, func(lo, hi int) *dag.Node {
		b := blockOf[lo]
		return g.AddNode(fmt.Sprintf("sum[%d:%d]", lo, hi), func(r *trace.Recorder) {
			var s int64
			for i := lo; i < hi; i++ {
				s += in.Get(r, i)
				r.Compute(1)
			}
			sums.Set(r, b, s)
		})
	})
	// Middle: sequential exclusive scan of the block sums.
	offsets := g.AddNode("offsets", func(r *trace.Recorder) {
		var s int64
		for b := 0; b < nblocks; b++ {
			v := sums.Get(r, b)
			sums.Set(r, b, s) // exclusive offsets in place
			s += v
			r.Compute(1)
		}
	})
	g.AddEdge(mid, offsets)
	// Phase 2: offset-adjusted rescan of each block.
	spawnTree(g, offsets, 0, n, grain, func(lo, hi int) *dag.Node {
		b := blockOf[lo]
		return g.AddNode(fmt.Sprintf("scan[%d:%d]", lo, hi), func(r *trace.Recorder) {
			acc := sums.Get(r, b)
			for i := lo; i < hi; i++ {
				acc += in.Get(r, i)
				r.Compute(1)
				out.Set(r, i, acc)
			}
		})
	})

	return &Instance{
		Spec:  s,
		Graph: freeze(g),
		Space: space,
		Verify: func() error {
			for i := range ref {
				if out.Data[i] != ref[i] {
					return fmt.Errorf("scan: out[%d] = %d, want %d", i, out.Data[i], ref[i])
				}
			}
			return nil
		},
	}
}

// buildHistogram constructs a clustered scatter/gather histogram: count N
// keys into M = N buckets (an 8·N-byte bucket array, well beyond any L2 in
// the sweep). Keys at stream position i are drawn uniformly from a window
// of M/8 buckets whose center sweeps linearly across the bucket range — the
// locality profile of time-ordered event streams aggregated by (clustered)
// entity. Irregular accesses with spatial clustering: the paper's
// bandwidth-limited irregular class.
//
// The key blocks form a Cilk-style spawn tree. Under PDF, co-scheduled
// blocks are stream-adjacent and share one bucket window in the L2; under
// WS, cores steal distant subtrees and scatter into P disjoint windows that
// together overflow it.
func buildHistogram(s Spec) *Instance {
	n := s.N
	m := n
	if m < 16 {
		m = 16
	}
	space := mem.NewSpace(mem.SpaceID(s.SpaceID))
	keys := trace.NewArray[int64](space, "keys", n)
	buckets := trace.NewArray[int64](space, "buckets", m)

	rng := xprng.New(s.Seed)
	window := int64(m / 8)
	if window < 16 {
		window = 16
	}
	for i := range keys.Data {
		center := int64(float64(i) / float64(n) * float64(m))
		k := center + rng.Int63n(window) - window/2
		if k < 0 {
			k += int64(m)
		}
		if k >= int64(m) {
			k -= int64(m)
		}
		keys.Data[i] = k
	}

	ref := make([]int64, m)
	for _, k := range keys.Data {
		ref[k]++
	}

	g := dag.New()
	root := g.AddNode("start", nil)
	spawnTree(g, root, 0, n, s.Grain, func(lo, hi int) *dag.Node {
		return g.AddNode(fmt.Sprintf("hist[%d:%d]", lo, hi), func(r *trace.Recorder) {
			for i := lo; i < hi; i++ {
				k := keys.Get(r, i)
				r.Compute(2)
				c := buckets.Get(r, int(k))
				buckets.Set(r, int(k), c+1)
			}
		})
	})

	return &Instance{
		Spec:  s,
		Graph: freeze(g),
		Space: space,
		Verify: func() error {
			for i := range ref {
				if buckets.Data[i] != ref[i] {
					return fmt.Errorf("histogram: bucket %d = %d, want %d", i, buckets.Data[i], ref[i])
				}
			}
			return nil
		},
	}
}
