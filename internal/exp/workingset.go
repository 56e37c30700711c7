package exp

import (
	"fmt"
	"strconv"

	"repro/internal/dag"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// runA5Premature measures the quantity underneath the paper's headline
// claim. Blelloch & Gibbons (SPAA 2004) bound PDF's aggregate working set
// by the sequential working set plus the footprint of the *premature*
// nodes — tasks executed before their sequential turn — and prove PDF keeps
// at most O(P·D) of them, where D is the DAG depth. The simulator tracks
// the premature high-water mark for every run; this experiment tabulates
// it against the P·D bound for PDF and WS.
//
// The bound depends only on the DAG's shape, which is known before any cell
// runs, so each machine point of the grid carries it as a second label.
//
// Expected shape: PDF's high-water stays a small multiple of P (far below
// P·D); WS's is orders of magnitude larger and tracks the dataset, not P —
// which is exactly why its working set grows with the core count.
func runA5Premature(quick bool) (*Result, error) {
	spec := workloads.Spec{Name: "mergesort", N: sizing(1<<18, quick), Grain: 2048, Seed: Seed}
	// Acquire (not Build): the analysis only reads the graph, and releasing
	// the untouched instance seeds the pool for the grid's own cells. The
	// grid announces its cells only once it runs, so a second announcement
	// keeps the released copy idle until then and is withdrawn after.
	InstancePool.Expect(spec)
	InstancePool.Expect(spec)
	defer InstancePool.Withdraw(spec)
	in := InstancePool.Acquire(spec, nil)
	shape := dag.Analyze(in.Graph)
	InstancePool.Release(in)
	return RunGrid(gridA5Premature(spec, shape, quick), quick)
}

// gridA5Premature is a5-premature's grid over spec, whose DAG has shape.
func gridA5Premature(spec workloads.Spec, shape dag.Shape, quick bool) *grid.Grid {
	coreCounts := []int{2, 4, 8, 16}
	if quick {
		coreCounts = []int{2, 8}
	}
	cps := make([]grid.ConfigPoint, len(coreCounts))
	for i, cores := range coreCounts {
		cps[i] = grid.ConfigPoint{
			Labels: []string{strconv.Itoa(cores), strconv.Itoa(cores * shape.Depth)},
			Config: machine.Default(cores),
		}
	}
	return &grid.Grid{
		ID:        "a5-premature",
		Title:     fmt.Sprintf("Premature nodes (working-set theorem): mergesort, %d tasks, depth D=%d", shape.Nodes, shape.Depth),
		Note:      "SPAA'04: PDF keeps O(P*D) premature nodes; the aggregate working set is sequential + their footprint",
		Workloads: []grid.WorkloadPoint{{Spec: spec}},
		Configs:   cps,
		Scheds:    pdfWS,
		Rows:      []grid.Axis{grid.Config},
		Cols: []grid.Column{
			grid.Label("cores", grid.Config, 0),
			grid.Label("P*D bound", grid.Config, 1),
			grid.Col("pdf premature", grid.M("premature").AtSched("pdf")),
			grid.Col("ws premature", grid.M("premature").AtSched("ws")),
			grid.Col("ws/pdf", grid.Ratio(grid.M("premature").AtSched("ws"), grid.M("premature").AtSched("pdf"))),
		},
	}
}
