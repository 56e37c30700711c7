package workloads

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xprng"
)

// buildLU constructs tiled right-looking LU decomposition without pivoting
// of an N×N diagonally-dominant matrix (dominance makes pivot-free LU
// numerically safe). The task graph is the classic dense-linear-algebra
// DAG: for each step k, factor the diagonal tile, solve the row and column
// panels against it, then apply one update task per trailing tile —
// update(i,j,k) depending on panel(i,k), panel(k,j), and update(i,j,k-1).
//
// LU's trailing updates re-read the panels just produced, giving the
// between-task reuse of the divide-and-conquer class with an irregular,
// shrinking frontier.
func buildLU(s Spec) *Instance {
	n := s.N
	b := leafDim(s.Grain) // n divisible by the tile, enforced by shapeErr
	if b > n {
		b = n
	}
	nb := n / b

	space := mem.NewSpace(mem.SpaceID(s.SpaceID))
	A := trace.NewArray[float64](space, "A", n*n)
	rng := xprng.New(s.Seed)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			A.Data[i*n+j] = rng.Float64()*2 - 1
		}
		A.Data[i*n+i] += float64(n) // diagonal dominance
	}
	a0 := append([]float64(nil), A.Data...)

	g := dag.New()
	root := g.AddNode("start", nil)

	// done[i][j] is the node after which tile (i,j) holds its step-k state.
	last := make([][]*dag.Node, nb)
	for i := range last {
		last[i] = make([]*dag.Node, nb)
		for j := range last[i] {
			last[i][j] = root
		}
	}

	for k := 0; k < nb; k++ {
		k := k
		diag := g.AddNode(fmt.Sprintf("diag(%d)", k), func(r *trace.Recorder) {
			recordedTileLU(r, A, n, k*b, b)
		})
		g.AddEdge(last[k][k], diag)
		last[k][k] = diag

		for j := k + 1; j < nb; j++ {
			j := j
			row := g.AddNode(fmt.Sprintf("row(%d,%d)", k, j), func(r *trace.Recorder) {
				recordedTRSMLower(r, A, n, k*b, j*b, b)
			})
			g.AddEdge(diag, row)
			g.AddEdge(last[k][j], row)
			last[k][j] = row
		}
		for i := k + 1; i < nb; i++ {
			i := i
			col := g.AddNode(fmt.Sprintf("col(%d,%d)", i, k), func(r *trace.Recorder) {
				recordedTRSMUpper(r, A, n, i*b, k*b, b)
			})
			g.AddEdge(diag, col)
			g.AddEdge(last[i][k], col)
			last[i][k] = col
		}
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				i, j := i, j
				upd := g.AddNode(fmt.Sprintf("upd(%d,%d,%d)", i, j, k), func(r *trace.Recorder) {
					recordedTileGEMM(r, A, n, i*b, k*b, j*b, b)
				})
				g.AddEdge(last[i][k], upd) // col panel
				g.AddEdge(last[k][j], upd) // row panel
				g.AddEdge(last[i][j], upd) // previous state of (i,j)
				last[i][j] = upd
			}
		}
	}

	return &Instance{
		Spec:  s,
		Graph: freeze(g),
		Space: space,
		Verify: func() error {
			return verifyLUResidual(n, a0, A.Data, s.Seed)
		},
	}
}

// recordedTileLU factors the b×b tile at (d,d) in place: unblocked
// right-looking LU, L unit-diagonal below, U on and above the diagonal.
func recordedTileLU(r *trace.Recorder, A trace.Array[float64], n, d, b int) {
	at := func(i, j int) int { return (d+i)*n + (d + j) }
	for k := 0; k < b; k++ {
		pivot := A.Get(r, at(k, k))
		for i := k + 1; i < b; i++ {
			lik := A.Get(r, at(i, k)) / pivot
			r.Compute(8) // divide
			A.Set(r, at(i, k), lik)
			for j := k + 1; j < b; j++ {
				v := A.Get(r, at(i, j))
				u := A.Get(r, at(k, j))
				r.Compute(2)
				A.Set(r, at(i, j), v-lik*u)
			}
		}
	}
}

// recordedTRSMLower solves L(kk) X = A(k,j) for the row panel: X overwrites
// the tile at (dr, dc), using the unit-lower triangle of the tile at
// (dr, dr).
func recordedTRSMLower(r *trace.Recorder, A trace.Array[float64], n, dr, dc, b int) {
	for col := 0; col < b; col++ {
		for i := 0; i < b; i++ {
			x := A.Get(r, (dr+i)*n+(dc+col))
			for k := 0; k < i; k++ {
				l := A.Get(r, (dr+i)*n+(dr+k))
				xk := A.Get(r, (dr+k)*n+(dc+col))
				r.Compute(2)
				x -= l * xk
			}
			A.Set(r, (dr+i)*n+(dc+col), x)
		}
	}
}

// recordedTRSMUpper solves X U(kk) = A(i,k) for the column panel: X
// overwrites the tile at (dr, dc), using the upper triangle of the tile at
// (dc, dc).
func recordedTRSMUpper(r *trace.Recorder, A trace.Array[float64], n, dr, dc, b int) {
	for row := 0; row < b; row++ {
		for j := 0; j < b; j++ {
			x := A.Get(r, (dr+row)*n+(dc+j))
			for k := 0; k < j; k++ {
				xk := A.Get(r, (dr+row)*n+(dc+k))
				u := A.Get(r, (dc+k)*n+(dc+j))
				r.Compute(2)
				x -= xk * u
			}
			u := A.Get(r, (dc+j)*n+(dc+j))
			r.Compute(8)
			A.Set(r, (dr+row)*n+(dc+j), x/u)
		}
	}
}

// recordedTileGEMM applies A(i,j) -= A(i,k) * A(k,j) for b×b tiles at rows
// di, dk and columns dk, dj.
func recordedTileGEMM(r *trace.Recorder, A trace.Array[float64], n, di, dk, dj, b int) {
	for i := 0; i < b; i++ {
		for k := 0; k < b; k++ {
			aik := A.Get(r, (di+i)*n+(dk+k))
			for j := 0; j < b; j++ {
				akj := A.Get(r, (dk+k)*n+(dj+j))
				v := A.Get(r, (di+i)*n+(dj+j))
				r.Compute(2)
				A.Set(r, (di+i)*n+(dj+j), v-aik*akj)
			}
		}
	}
}

// verifyLUResidual checks L·U ≈ A0 via random probe vectors: computing
// L·(U·v) from the packed factors must match A0·v. O(n²) per probe.
func verifyLUResidual(n int, a0, lu []float64, seed uint64) error {
	rng := xprng.New(seed ^ 0x10)
	for probe := 0; probe < 3; probe++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		// uv = U·v (upper triangle incl. diagonal).
		uv := make([]float64, n)
		for i := 0; i < n; i++ {
			var sum float64
			for j := i; j < n; j++ {
				sum += lu[i*n+j] * v[j]
			}
			uv[i] = sum
		}
		// luv = L·uv (unit lower triangle).
		luv := make([]float64, n)
		for i := 0; i < n; i++ {
			sum := uv[i]
			for j := 0; j < i; j++ {
				sum += lu[i*n+j] * uv[j]
			}
			luv[i] = sum
		}
		want := matVec(n, a0, v)
		for i := range want {
			diff := abs(luv[i] - want[i])
			scale := 1 + abs(want[i])
			if diff/scale > 1e-8*float64(n) {
				return fmt.Errorf("lu: residual row %d: got %v want %v", i, luv[i], want[i])
			}
		}
	}
	return nil
}
