package exp

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/machine"
	"repro/internal/report"
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
// Expected shape: PDF's high-water stays a small multiple of P (far below
// P·D); WS's is orders of magnitude larger and tracks the dataset, not P —
// which is exactly why its working set grows with the core count.
func runA5Premature(quick bool) (*Result, error) {
	n := sizing(1<<18, quick)
	spec := workloads.Spec{Name: "mergesort", N: n, Grain: 2048, Seed: Seed}
	// Acquire (not Build): the analysis only reads the graph, and releasing
	// the untouched instance seeds the pool for this experiment's own cells.
	in := InstancePool.Acquire(spec, nil)
	shape := dag.Analyze(in.Graph)
	InstancePool.Release(in)

	t := report.New(
		fmt.Sprintf("Premature nodes (working-set theorem): mergesort, %d tasks, depth D=%d", shape.Nodes, shape.Depth),
		"cores", "P*D bound", "pdf premature", "ws premature", "ws/pdf")
	t.Note = "SPAA'04: PDF keeps O(P*D) premature nodes; the aggregate working set is sequential + their footprint"
	res := &Result{ID: "a5-premature", Tables: []*report.Table{t}}

	coreCounts := []int{2, 4, 8, 16}
	if quick {
		coreCounts = []int{2, 8}
	}
	var cells []cell
	for _, cores := range coreCounts {
		cells = append(cells, pairCells(machine.Default(cores), spec)...)
	}
	runs, err := runCells(quick, cells)
	if err != nil {
		return nil, fmt.Errorf("a5-premature: %w", err)
	}
	for i := 0; i < len(cells); i += 2 {
		p, w := runs[i], runs[i+1]
		cores := cells[i].cfg.Cores
		t.AddRow(cores, cores*shape.Depth, p.MaxPremature, w.MaxPremature,
			ratio(float64(w.MaxPremature), float64(max(p.MaxPremature, 1))))
		res.Runs = append(res.Runs, p, w)
	}
	return res, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
