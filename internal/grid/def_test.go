package grid

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

func TestResolveDefaults(t *testing.T) {
	d := &Def{Workload: []string{"mergesort"}, Cores: []int{2, 4}}
	g, err := d.Resolve(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Workloads) != 1 || len(g.Configs) != 2 || len(g.Scheds) != 2 {
		t.Fatalf("axes %d/%d/%d, want 1/2/2", len(g.Workloads), len(g.Configs), len(g.Scheds))
	}
	spec := g.Workloads[0].Spec
	if spec.N != 65536 || spec.Grain != 2048 || spec.Seed != 7 {
		t.Fatalf("defaulted spec %v", spec)
	}
	if len(g.Cells()) != 4 {
		t.Fatalf("cells %d, want 4", len(g.Cells()))
	}
	// Default projection: cores label (the only multi-valued axis), then
	// per-sched cycles and l2-mpki with the two-sched ratio columns.
	var headers []string
	for _, c := range g.Cols {
		headers = append(headers, c.Name)
	}
	want := "cores|pdf cycles|ws cycles|ws/pdf cycles|pdf l2-mpki|ws l2-mpki|ws/pdf l2-mpki"
	if got := strings.Join(headers, "|"); got != want {
		t.Fatalf("default columns %q, want %q", got, want)
	}
}

func TestResolveOverrides(t *testing.T) {
	d := &Def{
		Workload: []string{"spmv"},
		N:        []int{8192},
		Iters:    []int{3},
		Cores:    []int{8},
		L2:       []string{"512KiB", "2MiB"},
		BW:       []float64{4, 0},
		Sched:    []string{"pdf"},
	}
	g, err := d.Resolve(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Configs) != 4 {
		t.Fatalf("configs %d, want 4 (l2 x bw)", len(g.Configs))
	}
	first := g.Configs[0].Config
	if first.L2Size != 512<<10 || first.BusBPC != 4 {
		t.Fatalf("override not applied: %+v", first)
	}
	// Overrides must NOT rename the config: Name is part of the cache
	// fingerprint, and keeping the default name is what lets an override
	// grid's cells alias field-identical registry cells (e.g. a
	// bw-override grid and a3-bandwidth).
	if first.Name != machine.Default(8).Name {
		t.Fatalf("override renamed the config to %q, breaking cross-store sharing", first.Name)
	}
	a3style := machine.Default(8)
	a3style.BusBPC = 4
	a3style.L2Size = 512 << 10
	if first.Fingerprint() != a3style.Fingerprint() {
		t.Fatalf("override point does not alias a registry-style config:\n%s\n%s", first.Fingerprint(), a3style.Fingerprint())
	}
	last := g.Configs[3].Config
	if last.L2Size != 2<<20 || last.BusBPC != 0 {
		t.Fatalf("last point %+v", last)
	}
	if g.Configs[3].Labels[3] != "inf" {
		t.Fatalf("infinite bandwidth label %q", g.Configs[3].Labels[3])
	}
	if g.Workloads[0].Spec.Iters != 3 {
		t.Fatalf("iters not applied: %v", g.Workloads[0].Spec)
	}
}

func TestResolveSchedRows(t *testing.T) {
	d := &Def{
		Workload: []string{"mergesort"},
		Cores:    []int{4},
		Sched:    []string{"pdf", "ws", "fifo"},
		Rows:     []string{"sched"},
		Speedup:  true,
	}
	g, err := d.Resolve(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 1 || g.Rows[0] != Sched {
		t.Fatalf("rows %v", g.Rows)
	}
	var headers []string
	for _, c := range g.Cols {
		headers = append(headers, c.Name)
	}
	want := "workload|sched|cycles|l2-mpki|speedup"
	if got := strings.Join(headers, "|"); got != want {
		t.Fatalf("sched-row columns %q, want %q", got, want)
	}
}

func TestResolveExplicitColumns(t *testing.T) {
	d := &Def{
		Workload: []string{"mergesort"},
		Cores:    []int{2, 4},
		Columns: []DefColumn{
			{Label: "cores"},
			{Header: "pdf", DefExpr: DefExpr{Metric: "l2-mpki", Sched: "pdf"}},
			{Header: "ws/pdf", DefExpr: DefExpr{Op: "ratio",
				Num: &DefExpr{Metric: "l2-mpki", Sched: "ws"},
				Den: &DefExpr{Metric: "l2-mpki", Sched: "pdf"}}},
		},
	}
	g, err := d.Resolve(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cols) != 3 || g.Cols[2].Expr.Op != "ratio" {
		t.Fatalf("explicit columns %+v", g.Cols)
	}
}

func TestResolveRejects(t *testing.T) {
	cases := map[string]*Def{
		"no workload":      {Cores: []int{2}},
		"no cores":         {Workload: []string{"mergesort"}},
		"unknown workload": {Workload: []string{"nope"}, Cores: []int{2}},
		"bad n":            {Workload: []string{"mergesort"}, N: []int{0}, Cores: []int{2}},
		"bad grain":        {Workload: []string{"mergesort"}, Grain: []int{-1}, Cores: []int{2}},
		"bad iters":        {Workload: []string{"mergesort"}, Iters: []int{-1}, Cores: []int{2}},
		"cores too low":    {Workload: []string{"mergesort"}, Cores: []int{0}},
		"cores too high":   {Workload: []string{"mergesort"}, Cores: []int{65}},
		"unknown sched":    {Workload: []string{"mergesort"}, Cores: []int{2}, Sched: []string{"nope"}},
		"bad l2":           {Workload: []string{"mergesort"}, Cores: []int{2}, L2: []string{"huge"}},
		"bad l2ways":       {Workload: []string{"mergesort"}, Cores: []int{2}, L2Ways: []int{0}},
		"bad masked":       {Workload: []string{"mergesort"}, Cores: []int{2}, Masked: []int{-1}},
		"masked >= ways":   {Workload: []string{"mergesort"}, Cores: []int{2}, Masked: []int{16}},
		"bad bw":           {Workload: []string{"mergesort"}, Cores: []int{2}, BW: []float64{-1}},
		"unknown metric":   {Workload: []string{"mergesort"}, Cores: []int{2}, Metrics: []string{"bogus"}},
		"unknown row":      {Workload: []string{"mergesort"}, Cores: []int{2}, Rows: []string{"bogus"}},
		"unknown label":    {Workload: []string{"mergesort"}, Cores: []int{2}, Columns: []DefColumn{{Label: "bogus"}}},
		"headerless expr":  {Workload: []string{"mergesort"}, Cores: []int{2}, Columns: []DefColumn{{DefExpr: DefExpr{Op: "ratio", Num: &DefExpr{Metric: "cycles", Sched: "pdf"}, Den: &DefExpr{Metric: "cycles", Sched: "ws"}}}}},
	}
	for name, d := range cases {
		if _, err := d.Resolve(1); err == nil {
			t.Errorf("%s: Resolve accepted an invalid definition", name)
		}
	}
}

// TestUnknownMetricListsValid pins the unknown-metric error text: it names
// every leaf metric, in the order of the metric table.
func TestUnknownMetricListsValid(t *testing.T) {
	d := &Def{Workload: []string{"mergesort"}, Cores: []int{2}, Metrics: []string{"bogus"}}
	_, err := d.Resolve(1)
	const want = `grid custom-grid: column "pdf bogus": unknown metric "bogus" (valid: [cycles instructions tasks ` +
		`busy-cycles idle-cycles dispatch-cycles l1-hits l1-misses l2-hits l2-misses l2-writebacks ` +
		`offchip-transfers offchip-bytes bus-queue-cycles bus-util steals steal-probes failed-steals ` +
		`premature l1-mpki l2-mpki utilization])`
	if err == nil || err.Error() != want {
		t.Fatalf("error = %v\nwant    %s", err, want)
	}
}

func TestResolveCellLimit(t *testing.T) {
	d := &Def{
		Workload: []string{"mergesort"},
		N:        manyInts(70),
		Grain:    manyInts(70),
		Cores:    []int{1, 2, 4, 8, 16, 32, 64}[:7],
		Sched:    []string{"pdf", "ws"},
	}
	if _, err := d.Resolve(1); err == nil || !strings.Contains(err.Error(), "shrink an axis") {
		t.Fatalf("cell limit not enforced: %v", err)
	}
}

// TestResolveCellLimitFailsFast pins the guard's placement: an absurd axis
// product must be rejected from the list lengths alone, before any point
// materializes (a typo'd range must not allocate millions of specs first).
func TestResolveCellLimitFailsFast(t *testing.T) {
	d := &Def{
		Workload: []string{"mergesort"},
		N:        manyInts(4096),
		Grain:    manyInts(4096),
		Seed:     []uint64{1, 2, 3, 4},
		Cores:    []int{8},
	}
	// 4096*4096*4 workload points would be several GiB if materialized;
	// completing quickly (and erroring) is the test.
	if _, err := d.Resolve(1); err == nil || !strings.Contains(err.Error(), "shrink an axis") {
		t.Fatalf("oversized grid not rejected: %v", err)
	}
}

func manyInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1024 + i
	}
	return out
}

func TestParseDefUnknownField(t *testing.T) {
	if _, err := ParseDef([]byte(`{"workload":["mergesort"],"coers":[2]}`)); err == nil {
		t.Fatal("unknown JSON field accepted")
	}
	d, err := ParseDef([]byte(`{"workload":["mergesort"],"cores":[2]}`))
	if err != nil || len(d.Workload) != 1 {
		t.Fatalf("valid definition rejected: %v", err)
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"512KiB":  512 << 10,
		"4MiB":    4 << 20,
		"1GiB":    1 << 30,
		"1048576": 1 << 20,
		"64B":     64,
	}
	for in, want := range cases {
		got, err := parseBytes(in)
		if err != nil || got != want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "-1", "0", "4MB", "1.5MiB"} {
		if _, err := parseBytes(bad); err == nil {
			t.Errorf("parseBytes(%q) accepted", bad)
		}
	}
}
