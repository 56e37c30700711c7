package exp

import (
	"strconv"

	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// pdfWS are the column pairs almost every ablation sweeps.
var pdfWS = []string{"pdf", "ws"}

// gridA1Grain sweeps task granularity. The paper's last finding says fine
// grain is "crucial to achieving good performance on CMPs": too coarse and
// PDF cannot co-schedule within a subproblem (the t5 effect); too fine and
// dispatch overhead dominates. The sweep exposes both cliffs.
func gridA1Grain(quick bool) *grid.Grid {
	cores := 16
	if quick {
		cores = 8
	}
	n := sizing(1<<19, quick)
	cfg := machine.Default(cores)
	grains := []int{512, 2048, 8192, 32768, n / cores}
	if quick {
		grains = []int{512, 4096, n / cores}
	}
	seen := map[int]bool{}
	var wps []grid.WorkloadPoint
	for _, g := range grains {
		if seen[g] {
			continue
		}
		seen[g] = true
		wps = append(wps, grid.WorkloadPoint{
			Labels: []string{strconv.Itoa(g)},
			Spec:   workloads.Spec{Name: "mergesort", N: n, Grain: g, Seed: Seed},
		})
	}
	return &grid.Grid{
		ID:        "a1-grain",
		Title:     "Ablation: mergesort task granularity (" + cfg.Name + ")",
		Note:      "fine grain is what lets PDF constructively share (paper finding 4)",
		Workloads: wps,
		Configs:   []grid.ConfigPoint{{Config: cfg}},
		Scheds:    pdfWS,
		Rows:      []grid.Axis{grid.Workload},
		Cols: []grid.Column{
			grid.Label("grain", grid.Workload, 0),
			grid.Col("tasks", grid.M("tasks").AtSched("pdf")),
			grid.Col("pdf cycles", grid.M("cycles").AtSched("pdf")),
			grid.Col("ws cycles", grid.M("cycles").AtSched("ws")),
			grid.Col("pdf MPKI", grid.M("l2-mpki").AtSched("pdf")),
			grid.Col("ws MPKI", grid.M("l2-mpki").AtSched("ws")),
			grid.Col("pdf/ws speedup", grid.Ratio(grid.M("cycles").AtSched("ws"), grid.M("cycles").AtSched("pdf"))),
		},
	}
}

// gridA2L2Size sweeps shared L2 capacity at a fixed core count, locating the
// crossover: once the whole dataset fits, the schedulers converge; the
// scarcer the cache, the more constructive sharing pays.
func gridA2L2Size(quick bool) *grid.Grid {
	cores := 16
	if quick {
		cores = 8
	}
	n := sizing(1<<19, quick)
	spec := workloads.Spec{Name: "mergesort", N: n, Grain: 2048, Seed: Seed}
	sizes := []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20}
	if quick {
		sizes = []int64{512 << 10, 2 << 20}
	}
	cps := make([]grid.ConfigPoint, len(sizes))
	for i, l2 := range sizes {
		cfg := machine.Default(cores)
		cfg.L2Size = l2
		cfg.Name = "l2-" + grid.FmtBytes(l2)
		cps[i] = grid.ConfigPoint{Labels: []string{grid.FmtBytes(l2)}, Config: cfg}
	}
	return &grid.Grid{
		ID:        "a2-l2size",
		Title:     "Ablation: shared L2 capacity at fixed cores (mergesort)",
		Note:      "gap opens when dataset exceeds L2 and closes again when even L2/P suffices",
		Workloads: []grid.WorkloadPoint{{Spec: spec}},
		Configs:   cps,
		Scheds:    pdfWS,
		Rows:      []grid.Axis{grid.Config},
		Cols: []grid.Column{
			grid.Label("L2", grid.Config, 0),
			grid.Col("pdf cycles", grid.M("cycles").AtSched("pdf")),
			grid.Col("ws cycles", grid.M("cycles").AtSched("ws")),
			grid.Col("pdf MPKI", grid.M("l2-mpki").AtSched("pdf")),
			grid.Col("ws MPKI", grid.M("l2-mpki").AtSched("ws")),
			grid.Col("pdf/ws speedup", grid.Ratio(grid.M("cycles").AtSched("ws"), grid.M("cycles").AtSched("pdf"))),
		},
	}
}

// gridA3Bandwidth sweeps off-chip bandwidth at fixed cores and cache: with
// abundant bandwidth the traffic gap stops costing time (the paper's
// "not limited by off-chip bandwidth" neutral case); as bandwidth tightens,
// PDF's traffic reduction converts into execution-time advantage.
func gridA3Bandwidth(quick bool) *grid.Grid {
	cores := 16
	if quick {
		cores = 8
	}
	n := sizing(1<<19, quick)
	spec := workloads.Spec{Name: "mergesort", N: n, Grain: 2048, Seed: Seed}
	bws := []float64{2, 4, 8, 16, 0} // 0 = infinite
	if quick {
		bws = []float64{4, 0}
	}
	cps := make([]grid.ConfigPoint, len(bws))
	for i, bw := range bws {
		cfg := machine.Default(cores)
		cfg.BusBPC = bw
		label := "inf"
		if bw > 0 {
			label = strconv.FormatFloat(bw, 'f', 3, 64)
		}
		cps[i] = grid.ConfigPoint{Labels: []string{label}, Config: cfg}
	}
	return &grid.Grid{
		ID:        "a3-bandwidth",
		Title:     "Ablation: off-chip bandwidth at fixed cores (mergesort)",
		Note:      "PDF's advantage grows as bandwidth tightens; with infinite bandwidth only latency is left",
		Workloads: []grid.WorkloadPoint{{Spec: spec}},
		Configs:   cps,
		Scheds:    pdfWS,
		Rows:      []grid.Axis{grid.Config},
		Cols: []grid.Column{
			grid.Label("bytes/cycle", grid.Config, 0),
			grid.Col("pdf cycles", grid.M("cycles").AtSched("pdf")),
			grid.Col("ws cycles", grid.M("cycles").AtSched("ws")),
			grid.Col("bus util pdf", grid.M("bus-util").AtSched("pdf")),
			grid.Col("bus util ws", grid.M("bus-util").AtSched("ws")),
			grid.Col("pdf/ws speedup", grid.Ratio(grid.M("cycles").AtSched("ws"), grid.M("cycles").AtSched("pdf"))),
		},
	}
}

// gridA4Policies compares the four scheduler policies on one workload,
// isolating what matters: WS's steal-from-the-oldest-end choice, and PDF's
// sequential priority versus a naive shared FIFO queue.
func gridA4Policies(quick bool) *grid.Grid {
	cores := 16
	if quick {
		cores = 8
	}
	n := sizing(1<<19, quick)
	cfg := machine.Default(cores)
	return &grid.Grid{
		ID:        "a4-stealpolicy",
		Title:     "Ablation: scheduler policy variants (mergesort, " + cfg.Name + ")",
		Note:      "pdf ~ sequential order; ws steals oldest; ws-stealnewest and fifo are strawmen",
		Workloads: []grid.WorkloadPoint{{Spec: workloads.Spec{Name: "mergesort", N: n, Grain: 2048, Seed: Seed}}},
		Configs:   []grid.ConfigPoint{{Config: cfg}},
		Scheds:    []string{"pdf", "ws", "ws-stealnewest", "fifo"},
		Rows:      []grid.Axis{grid.Sched},
		Cols: []grid.Column{
			grid.Label("policy", grid.Sched, 0),
			grid.Col("cycles", grid.M("cycles")),
			grid.Col("L2 MPKI", grid.M("l2-mpki")),
			grid.Col("steals", grid.M("steals")),
			grid.Col("premature high-water", grid.M("premature")),
		},
	}
}
