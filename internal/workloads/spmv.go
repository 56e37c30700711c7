package workloads

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xprng"
)

// spmvNnzPerRow is the fixed nonzero count per matrix row.
const spmvNnzPerRow = 8

// buildSpMV constructs iterated sparse matrix–vector multiplication,
// x_{t+1} = A·x_t, on an N×N CSR matrix with a banded-random sparsity
// pattern: each row's columns cluster inside a window of ±N/4 around the
// diagonal. This is the paper's bandwidth-limited irregular class: the
// matrix itself streams from memory every iteration with no reuse, while
// the x vector is reused heavily — rows share their neighbors' columns.
//
// Each iteration is a Cilk-style spawn tree over row blocks with a barrier
// join (see spawnTree for why a tree, not a flat fork). Under PDF,
// co-scheduled tasks are consecutive row blocks whose column windows
// overlap, so one window's worth of x stays L2-resident. Under WS, each
// core steals a distant subtree of rows, touching P disjoint x windows that
// together overflow the shared L2 — plus P disjoint matrix streams.
func buildSpMV(s Spec) *Instance {
	n := s.N
	iters := s.Iters
	if iters <= 0 {
		iters = 3
	}
	nnz := n * spmvNnzPerRow

	space := mem.NewSpace(mem.SpaceID(s.SpaceID))
	val := trace.NewArray[float64](space, "val", nnz)
	colidx := trace.NewArray[int32](space, "colidx", nnz)
	x0 := trace.NewArray[float64](space, "x0", n)
	x1 := trace.NewArray[float64](space, "x1", n)

	rng := xprng.New(s.Seed)
	band := n / 4
	if band < 64 {
		band = 64
	}
	for row := 0; row < n; row++ {
		for k := 0; k < spmvNnzPerRow; k++ {
			off := rng.Intn(2*band+1) - band
			col := row + off
			if col < 0 {
				col += n
			}
			if col >= n {
				col -= n
			}
			colidx.Data[row*spmvNnzPerRow+k] = int32(col)
			// Scale values down so iterated products stay finite.
			val.Data[row*spmvNnzPerRow+k] = (rng.Float64()*2 - 1) / float64(spmvNnzPerRow)
		}
	}
	for i := 0; i < n; i++ {
		x0.Data[i] = rng.Float64()
	}

	// Host reference for verification, mirroring the exact loop order.
	ref := append([]float64(nil), x0.Data...)
	refNext := make([]float64, n)
	for t := 0; t < iters; t++ {
		for row := 0; row < n; row++ {
			var sum float64
			for k := 0; k < spmvNnzPerRow; k++ {
				idx := row*spmvNnzPerRow + k
				sum += val.Data[idx] * ref[colidx.Data[idx]]
			}
			refNext[row] = sum
		}
		ref, refNext = refNext, ref
	}

	rowsPerTask := s.Grain / spmvNnzPerRow
	if rowsPerTask < 1 {
		rowsPerTask = 1
	}

	g := dag.New()
	prev := g.AddNode("start", nil)
	src, dst := x0, x1
	for t := 0; t < iters; t++ {
		srcT, dstT := src, dst // fixed copies for the task closures
		exit := spawnTree(g, prev, 0, n, rowsPerTask, func(lo, hi int) *dag.Node {
			return g.AddNode(fmt.Sprintf("rows[%d:%d]@%d", lo, hi, t), func(r *trace.Recorder) {
				for row := lo; row < hi; row++ {
					var sum float64
					for k := 0; k < spmvNnzPerRow; k++ {
						idx := row*spmvNnzPerRow + k
						c := int(colidx.Get(r, idx))
						v := val.Get(r, idx)
						sum += v * srcT.Get(r, c)
						r.Compute(2)
					}
					dstT.Set(r, row, sum)
				}
			})
		})
		barrier := g.AddNode(fmt.Sprintf("iter%d", t), nil)
		g.AddEdge(exit, barrier)
		prev = barrier
		src, dst = dst, src
	}

	// iters swaps happened inside loop scopes; recompute the final vector.
	final := x0
	if iters%2 == 1 {
		final = x1
	}
	return &Instance{
		Spec:  s,
		Graph: freeze(g),
		Space: space,
		Verify: func() error {
			for i := 0; i < n; i++ {
				if final.Data[i] != ref[i] {
					return fmt.Errorf("spmv: x[%d] = %v, want %v", i, final.Data[i], ref[i])
				}
			}
			return nil
		},
	}
}
