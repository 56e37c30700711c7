package exp

import (
	"strconv"

	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// gridT3Power reproduces the paper's power observation: "PDF's smaller
// working sets provide opportunities to power down segments of the cache
// without increasing the running time." We mask 0%, 25%, 50%, and 75% of
// the L2's ways and measure each scheduler's slowdown relative to its own
// full-cache run — a ratio against the baseline cell at the first machine
// point (zero masked ways). PDF should tolerate more masked capacity
// before slowing.
func gridT3Power(quick bool) *grid.Grid {
	cores := 8
	n := sizing(1<<19, quick)
	spec := workloads.Spec{Name: "mergesort", N: n, Grain: 2048, Seed: Seed}

	masks := []int{0, 4, 8, 12} // of 16 ways
	if quick {
		masks = []int{0, 8}
	}
	cps := make([]grid.ConfigPoint, len(masks))
	for i, masked := range masks {
		cfg := machine.Default(cores)
		cfg.L2MaskedWays = masked
		capacity := cfg.L2Size * int64(cfg.L2Ways-cfg.L2MaskedWays) / int64(cfg.L2Ways)
		cps[i] = grid.ConfigPoint{
			Labels: []string{strconv.Itoa(masked), grid.FmtBytes(capacity)},
			Config: cfg,
		}
	}
	slowdown := func(sched string) *grid.Expr {
		return grid.Ratio(grid.M("cycles").AtSched(sched), grid.M("cycles").AtSched(sched).AtConfig(0))
	}
	return &grid.Grid{
		ID:        "t3-power",
		Title:     "Cache power-down: slowdown vs fraction of L2 powered off (mergesort, 8 cores)",
		Note:      "paper: PDF's small working set lets cache segments power down at no time cost",
		Workloads: []grid.WorkloadPoint{{Spec: spec}},
		Configs:   cps,
		Scheds:    pdfWS,
		Rows:      []grid.Axis{grid.Config},
		Cols: []grid.Column{
			grid.Label("L2 ways off", grid.Config, 0),
			grid.Label("capacity", grid.Config, 1),
			grid.Col("pdf cycles", grid.M("cycles").AtSched("pdf")),
			grid.Col("pdf slowdown", slowdown("pdf")),
			grid.Col("ws cycles", grid.M("cycles").AtSched("ws")),
			grid.Col("ws slowdown", slowdown("ws")),
		},
	}
}
