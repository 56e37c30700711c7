package exp

import (
	"strconv"

	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// fig1Spec is the mergesort input used for both Figure 1 panels: 512Ki keys
// (8 MiB across the two buffers) against default L2s of 2-4 MiB.
func fig1Spec(quick bool) workloads.Spec {
	return workloads.Spec{Name: "mergesort", N: sizing(1<<19, quick), Grain: 2048, Seed: Seed}
}

// fig1Configs is the paper's x-axis: the default configuration per core
// count, labeled by cores.
func fig1Configs(quick bool) []grid.ConfigPoint {
	configs := machine.DefaultSweep()
	if quick {
		configs = configs[:4] // 1..8 cores
	}
	return coresPoints(configs)
}

// coresPoints labels each configuration with its core count — the row
// label of every cores-axis table.
func coresPoints(configs []machine.Config) []grid.ConfigPoint {
	pts := make([]grid.ConfigPoint, len(configs))
	for i, cfg := range configs {
		pts[i] = grid.ConfigPoint{Labels: []string{strconv.Itoa(cfg.Cores)}, Config: cfg}
	}
	return pts
}

func gridFig1Misses(quick bool) *grid.Grid {
	return &grid.Grid{
		ID:        "fig1-misses",
		Title:     "Figure 1 (left): parallel merge sort, L2 misses per 1000 instructions",
		Note:      "paper shape: WS rises with cores; PDF stays near the 1-core line",
		Workloads: []grid.WorkloadPoint{{Spec: fig1Spec(quick)}},
		Configs:   fig1Configs(quick),
		Scheds:    pdfWS,
		Rows:      []grid.Axis{grid.Config},
		Cols: []grid.Column{
			grid.Label("cores", grid.Config, 0),
			grid.Col("pdf", grid.M("l2-mpki").AtSched("pdf")),
			grid.Col("ws", grid.M("l2-mpki").AtSched("ws")),
			grid.Col("ws/pdf", grid.Ratio(grid.M("l2-mpki").AtSched("ws"), grid.M("l2-mpki").AtSched("pdf"))),
		},
	}
}

func gridFig1Speedup(quick bool) *grid.Grid {
	// Speedup over one core is a ratio against the baseline cell: the same
	// scheduler on the first machine point of the sweep.
	speedup := func(sched string) *grid.Expr {
		return grid.Ratio(grid.M("cycles").AtSched(sched).AtConfig(0), grid.M("cycles").AtSched(sched))
	}
	return &grid.Grid{
		ID:        "fig1-speedup",
		Title:     "Figure 1 (right): parallel merge sort, speedup over one core",
		Note:      "paper shape: both scale; PDF pulls ahead 1.3-1.6x at high core counts",
		Workloads: []grid.WorkloadPoint{{Spec: fig1Spec(quick)}},
		Configs:   fig1Configs(quick),
		Scheds:    pdfWS,
		Rows:      []grid.Axis{grid.Config},
		Cols: []grid.Column{
			grid.Label("cores", grid.Config, 0),
			grid.Col("pdf", speedup("pdf")),
			grid.Col("ws", speedup("ws")),
			grid.Col("pdf/ws", grid.Ratio(speedup("pdf"), speedup("ws"))),
		},
	}
}
