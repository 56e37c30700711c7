package workloads

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xprng"
)

// buildMatmul constructs cache-oblivious recursive matrix multiplication
// C = A×B on N×N float64 matrices. The recursion splits each multiply into
// eight half-size multiplies in two additive phases (the four products into
// distinct C quadrants run in parallel; the second four follow after a
// join). Leaves are real recorded ikj block multiplies.
//
// Matmul is the paper's compute-bound class: its O(n³) arithmetic over
// O(n²) data gives enormous reuse, so neither scheduler is off-chip-
// bandwidth limited and PDF ≈ WS on execution time (Finding 2, second
// case) — while PDF still shrinks the instantaneous working set.
func buildMatmul(s Spec) *Instance {
	n := s.N // power of two, enforced by shapeErr before dispatch
	leaf := leafDim(s.Grain)
	if leaf > n {
		leaf = n
	}
	space := mem.NewSpace(mem.SpaceID(s.SpaceID))
	A := trace.NewArray[float64](space, "A", n*n)
	B := trace.NewArray[float64](space, "B", n*n)
	C := trace.NewArray[float64](space, "C", n*n)
	rng := xprng.New(s.Seed)
	for i := range A.Data {
		A.Data[i] = rng.Float64()*2 - 1
		B.Data[i] = rng.Float64()*2 - 1
	}
	a0 := append([]float64(nil), A.Data...)
	b0 := append([]float64(nil), B.Data...)

	g := dag.New()
	root := g.AddNode("start", nil)
	mmDAG(g, root, A, B, C, n, 0, 0, 0, 0, 0, 0, n, leaf)

	return &Instance{
		Spec:  s,
		Graph: freeze(g),
		Space: space,
		Verify: func() error {
			return verifyMatmulResidual(n, a0, b0, C.Data, s.Seed)
		},
	}
}

// leafDim converts an element-count grain into a block dimension: the
// largest power of two whose square fits in grain, at least 4.
func leafDim(grain int) int {
	d := 4
	for (2*d)*(2*d) <= grain {
		d *= 2
	}
	return d
}

// mmDAG emits tasks computing C[cr:cr+size, cc:cc+size] +=
// A[ar.., ac..] × B[br.., bc..], returning the subtree exit node.
func mmDAG(g *dag.Graph, parent *dag.Node, A, B, C trace.Array[float64], n, ar, ac, br, bc, cr, cc, size, leaf int) *dag.Node {
	if size <= leaf {
		t := g.AddNode(fmt.Sprintf("mm%d@%d,%d", size, cr, cc), func(r *trace.Recorder) {
			recordedBlockMultiply(r, A, B, C, n, ar, ac, br, bc, cr, cc, size)
		})
		g.AddEdge(parent, t)
		return t
	}
	h := size / 2
	entry := g.AddNode(fmt.Sprintf("split%d@%d,%d", size, cr, cc), nil)
	g.AddEdge(parent, entry)
	// Phase 1: the four products with disjoint C quadrants.
	mid := g.AddNode("phase", nil)
	for _, q := range [4][6]int{
		{ar, ac, br, bc, cr, cc},                 // C11 += A11*B11
		{ar, ac, br, bc + h, cr, cc + h},         // C12 += A11*B12
		{ar + h, ac, br, bc, cr + h, cc},         // C21 += A21*B11
		{ar + h, ac, br, bc + h, cr + h, cc + h}, // C22 += A21*B12
	} {
		exit := mmDAG(g, entry, A, B, C, n, q[0], q[1], q[2], q[3], q[4], q[5], h, leaf)
		g.AddEdge(exit, mid)
	}
	// Phase 2: the complementary four, after the join.
	end := g.AddNode("joined", nil)
	for _, q := range [4][6]int{
		{ar, ac + h, br + h, bc, cr, cc},                 // C11 += A12*B21
		{ar, ac + h, br + h, bc + h, cr, cc + h},         // C12 += A12*B22
		{ar + h, ac + h, br + h, bc, cr + h, cc},         // C21 += A22*B21
		{ar + h, ac + h, br + h, bc + h, cr + h, cc + h}, // C22 += A22*B22
	} {
		exit := mmDAG(g, mid, A, B, C, n, q[0], q[1], q[2], q[3], q[4], q[5], h, leaf)
		g.AddEdge(exit, end)
	}
	return end
}

// recordedBlockMultiply performs the real size×size block product with an
// ikj loop order, recording loads of A and B, the load-modify-store of C,
// and two arithmetic cycles per multiply-add.
func recordedBlockMultiply(r *trace.Recorder, A, B, C trace.Array[float64], n, ar, ac, br, bc, cr, cc, size int) {
	for i := 0; i < size; i++ {
		for k := 0; k < size; k++ {
			aik := A.Get(r, (ar+i)*n+(ac+k))
			for j := 0; j < size; j++ {
				bkj := B.Get(r, (br+k)*n+(bc+j))
				cij := C.Get(r, (cr+i)*n+(cc+j))
				r.Compute(2)
				C.Set(r, (cr+i)*n+(cc+j), cij+aik*bkj)
			}
		}
	}
}

// verifyMatmulResidual checks C against A0×B0 via random probe vectors:
// C·v must equal A0·(B0·v) to floating-point tolerance. O(n²) per probe.
func verifyMatmulResidual(n int, a0, b0, c []float64, seed uint64) error {
	rng := xprng.New(seed ^ 0xdeadbeef)
	for probe := 0; probe < 3; probe++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		bv := matVec(n, b0, v)
		want := matVec(n, a0, bv)
		got := matVec(n, c, v)
		for i := range want {
			diff := got[i] - want[i]
			if diff < 0 {
				diff = -diff
			}
			scale := 1.0 + abs(want[i])
			if diff/scale > 1e-9*float64(n) {
				return fmt.Errorf("matmul: residual row %d: got %v want %v", i, got[i], want[i])
			}
		}
	}
	return nil
}

func matVec(n int, m, v []float64) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum float64
		row := m[i*n : (i+1)*n]
		for j, x := range row {
			sum += x * v[j]
		}
		out[i] = sum
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
