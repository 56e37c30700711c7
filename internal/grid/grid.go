// Package grid turns the repository's one experiment shape into data. Every
// pure experiment in this reproduction — and every user-authored sweep — is
// the same three steps: enumerate a grid of (workload, machine config,
// scheduler) cells, simulate each cell, and project derived columns
// (per-1000-instruction rates, ratios, speedups against a baseline cell)
// into a table. A Grid declares those steps as values:
//
//   - Axes: workload points (a workloads.Spec plus display labels), machine
//     configuration points (a machine.Config plus display labels), and
//     scheduler names.
//   - Cells: the cartesian product of the axes, enumerated in canonical
//     order (workload-major, then config, then scheduler) so every consumer
//     — the runner, the result cache, golden tables — sees one fixed order.
//   - Columns: axis labels, leaf metrics extracted from one cell's
//     metrics.Run, and derived expressions over them.
//
// The executor is deliberately not here: a Grid only *describes* work.
// internal/exp runs the enumerated cells through its budgeted runner,
// instance pool, and content-addressed cache, then calls Project on the
// results — so user grids inherit every execution guarantee the registry
// experiments have (determinism at any parallelism, byte-identical cached
// replays) without this package knowing those layers exist.
package grid

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/workloads"
)

// Axis names the three dimensions of a grid.
type Axis string

const (
	Workload Axis = "workload"
	Config   Axis = "config"
	Sched    Axis = "sched"
)

// WorkloadPoint is one value on the workload axis: a fully resolved spec
// plus the strings label columns print for it (e.g. the workload name, a
// grain, a variant tag).
type WorkloadPoint struct {
	Labels []string
	Spec   workloads.Spec
}

// ConfigPoint is one value on the machine axis.
type ConfigPoint struct {
	Labels []string
	Config machine.Config
}

// Cell names one independent simulation: a workload instance on a machine
// configuration under a scheduler.
type Cell struct {
	Config machine.Config
	Spec   workloads.Spec
	Sched  string
}

// Grid is a declarative scenario sweep: axes, row structure, and columns.
// It is pure data — Cells enumerates the work, Project renders the results.
type Grid struct {
	ID    string
	Title string
	Note  string

	Workloads []WorkloadPoint
	Configs   []ConfigPoint
	Scheds    []string

	// Rows lists the axes that vary from table row to table row, outermost
	// first. Axes not listed are either singletons (their only point serves
	// every row) or series pinned per column (e.g. the pdf/ws column pairs).
	Rows []Axis

	Cols []Column
}

// Column is one table column: either an axis label for the current row or
// an expression evaluated against the row's runs.
type Column struct {
	Name  string
	Label *LabelRef
	Expr  *Expr
	// Only, when non-empty, gates an Expr column to rows whose scheduler
	// matches; other rows render an empty cell. (t5-coarse prints the
	// cross-scheduler speedup once per variant, on the pdf row.)
	Only string
}

// LabelRef points a label column at one of an axis point's label strings.
type LabelRef struct {
	Axis Axis
	LI   int
}

// Sel pins an expression leaf to fixed axis coordinates; nil fields take
// the row's coordinate. Pinning is how series columns (Sched = "pdf") and
// baseline cells (Config = 0 for speedup-over-one-core) are expressed.
type Sel struct {
	Workload *int
	Config   *int
	Sched    *string
}

// Expr is a column value: a leaf metric at a (possibly pinned) cell, or a
// derived operation over sub-expressions.
//
// Ops:
//
//	ratio    Num / Den (0 when Den is 0) — also expresses speedups and
//	         slowdowns by pinning one operand to a baseline cell
//	pct-less 100 * (1 - Num/Den), the paper's "% traffic reduction"
//	per1k    Num per 1000 instructions of Num's own cell (Num must be a
//	         leaf) — the generic form of the MPKI columns
type Expr struct {
	Metric string
	At     Sel

	Op  string
	Num *Expr
	Den *Expr
}

// M returns a leaf expression for the named metric at the row's cell.
func M(metric string) *Expr { return &Expr{Metric: metric} }

// AtSched returns a copy of e pinned to the named scheduler.
func (e *Expr) AtSched(sched string) *Expr {
	c := *e
	c.At.Sched = &sched
	return &c
}

// AtConfig returns a copy of e pinned to the machine axis point at index i.
func (e *Expr) AtConfig(i int) *Expr {
	c := *e
	c.At.Config = &i
	return &c
}

// Ratio returns num/den (0 when den is 0).
func Ratio(num, den *Expr) *Expr { return &Expr{Op: "ratio", Num: num, Den: den} }

// PctLess returns 100*(1 - num/den): how much smaller num is than den, in
// percent (0 when den is 0).
func PctLess(num, den *Expr) *Expr { return &Expr{Op: "pct-less", Num: num, Den: den} }

// Per1k returns num per 1000 instructions of num's cell.
func Per1k(num *Expr) *Expr { return &Expr{Op: "per1k", Num: num} }

// Label returns an axis-label column.
func Label(name string, axis Axis, li int) Column {
	return Column{Name: name, Label: &LabelRef{Axis: axis, LI: li}}
}

// Col returns an expression column.
func Col(name string, e *Expr) Column { return Column{Name: name, Expr: e} }

// ColOnly returns an expression column rendered only on rows whose
// scheduler is only; other rows get an empty cell.
func ColOnly(name, only string, e *Expr) Column {
	return Column{Name: name, Expr: e, Only: only}
}

// metricTable lists the leaf metrics, in the order the "unknown metric"
// error advertises them, with their extractors over one cell's result
// record. Leaf columns print int-typed metrics as integers and float-typed
// metrics with the report package's fixed three decimals.
var metricTable = []struct {
	name string
	fn   func(metrics.Run) any
}{
	{"cycles", func(r metrics.Run) any { return r.Cycles }},
	{"instructions", func(r metrics.Run) any { return r.Instructions }},
	{"tasks", func(r metrics.Run) any { return r.Tasks }},
	{"busy-cycles", func(r metrics.Run) any { return r.BusyCycles }},
	{"idle-cycles", func(r metrics.Run) any { return r.IdleCycles }},
	{"dispatch-cycles", func(r metrics.Run) any { return r.DispatchCyc }},
	{"l1-hits", func(r metrics.Run) any { return r.L1Hits }},
	{"l1-misses", func(r metrics.Run) any { return r.L1Misses }},
	{"l2-hits", func(r metrics.Run) any { return r.L2Hits }},
	{"l2-misses", func(r metrics.Run) any { return r.L2Misses }},
	{"l2-writebacks", func(r metrics.Run) any { return r.L2Writebacks }},
	{"offchip-transfers", func(r metrics.Run) any { return r.OffchipTransfers }},
	{"offchip-bytes", func(r metrics.Run) any { return r.OffchipBytes }},
	{"bus-queue-cycles", func(r metrics.Run) any { return r.BusQueueCycles }},
	{"bus-util", func(r metrics.Run) any { return r.BusUtilization }},
	{"steals", func(r metrics.Run) any { return r.Steals }},
	{"steal-probes", func(r metrics.Run) any { return r.StealProbes }},
	{"failed-steals", func(r metrics.Run) any { return r.FailedSteals }},
	{"premature", func(r metrics.Run) any { return r.MaxPremature }},
	{"l1-mpki", func(r metrics.Run) any { return r.L1MPKI() }},
	{"l2-mpki", func(r metrics.Run) any { return r.L2MPKI() }},
	{"utilization", func(r metrics.Run) any { return r.Utilization() }},
}

// metricFn returns the extractor of the named leaf metric.
func metricFn(name string) (func(metrics.Run) any, bool) {
	for _, m := range metricTable {
		if m.name == name {
			return m.fn, true
		}
	}
	return nil, false
}

// metricNames lists the leaf metric names in table order.
func metricNames() []string {
	names := make([]string, len(metricTable))
	for i, m := range metricTable {
		names[i] = m.name
	}
	return names
}

// axisLen returns the number of points on an axis.
func (g *Grid) axisLen(a Axis) int {
	switch a {
	case Workload:
		return len(g.Workloads)
	case Config:
		return len(g.Configs)
	case Sched:
		return len(g.Scheds)
	}
	return 0
}

// rowIdx addresses one cell by axis indices.
type rowIdx struct{ w, c, s int }

func (r *rowIdx) set(a Axis, i int) {
	switch a {
	case Workload:
		r.w = i
	case Config:
		r.c = i
	case Sched:
		r.s = i
	}
}

// cellIndex maps axis indices to the canonical enumeration index.
func (g *Grid) cellIndex(w, c, s int) int {
	return (w*len(g.Configs)+c)*len(g.Scheds) + s
}

// Cells enumerates the grid's cells in canonical order: workload-major,
// then machine configuration, then scheduler innermost. The order is a pure
// function of the grid, so two processes enumerating the same grid submit
// identical batches — the property the runner's submit-order delivery and
// the result cache's deduplication both lean on.
func (g *Grid) Cells() []Cell {
	cells := make([]Cell, 0, len(g.Workloads)*len(g.Configs)*len(g.Scheds))
	for _, w := range g.Workloads {
		for _, c := range g.Configs {
			for _, s := range g.Scheds {
				cells = append(cells, Cell{Config: c.Config, Spec: w.Spec, Sched: s})
			}
		}
	}
	cellsEnumerated.Add(int64(len(cells)))
	return cells
}

// rowPoints enumerates the table rows: the cartesian product of the Rows
// axes with the first axis outermost; free axes sit at index 0.
func (g *Grid) rowPoints() []rowIdx {
	points := []rowIdx{{}}
	for _, ax := range g.Rows {
		n := g.axisLen(ax)
		next := make([]rowIdx, 0, len(points)*n)
		for _, p := range points {
			for i := 0; i < n; i++ {
				q := p
				q.set(ax, i)
				next = append(next, q)
			}
		}
		points = next
	}
	return points
}

// schedIndex resolves a scheduler name to its axis index.
func (g *Grid) schedIndex(name string) (int, error) {
	for i, s := range g.Scheds {
		if s == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("grid %s: scheduler %q is not on the sched axis %v", g.ID, name, g.Scheds)
}

// resolve returns the cell a leaf expression addresses for the given row.
func (g *Grid) resolve(at Sel, row rowIdx) (rowIdx, error) {
	p := row
	if at.Workload != nil {
		p.w = *at.Workload
	}
	if at.Config != nil {
		p.c = *at.Config
	}
	if at.Sched != nil {
		i, err := g.schedIndex(*at.Sched)
		if err != nil {
			return p, err
		}
		p.s = i
	}
	return p, nil
}

// eval computes an expression for one row. Leaves keep their metric's Go
// type (so integer columns print as integers); derived ops yield float64.
func (g *Grid) eval(e *Expr, row rowIdx, runs []metrics.Run) (any, error) {
	if e.Metric != "" {
		fn, ok := metricFn(e.Metric)
		if !ok {
			return nil, fmt.Errorf("grid %s: unknown metric %q", g.ID, e.Metric)
		}
		p, err := g.resolve(e.At, row)
		if err != nil {
			return nil, err
		}
		return fn(runs[g.cellIndex(p.w, p.c, p.s)]), nil
	}
	switch e.Op {
	case "ratio":
		num, den, err := g.evalPair(e, row, runs)
		if err != nil {
			return nil, err
		}
		if den == 0 {
			return 0.0, nil
		}
		return num / den, nil
	case "pct-less":
		num, den, err := g.evalPair(e, row, runs)
		if err != nil {
			return nil, err
		}
		if den == 0 {
			return 0.0, nil
		}
		return 100 * (1 - num/den), nil
	case "per1k":
		num, err := g.evalF(e.Num, row, runs)
		if err != nil {
			return nil, err
		}
		p, err := g.resolve(e.Num.At, row)
		if err != nil {
			return nil, err
		}
		instr := runs[g.cellIndex(p.w, p.c, p.s)].Instructions
		if instr == 0 {
			return 0.0, nil
		}
		return num * 1000 / float64(instr), nil
	}
	return nil, fmt.Errorf("grid %s: expression has neither a metric nor a known op (op=%q)", g.ID, e.Op)
}

func (g *Grid) evalPair(e *Expr, row rowIdx, runs []metrics.Run) (num, den float64, err error) {
	if num, err = g.evalF(e.Num, row, runs); err != nil {
		return 0, 0, err
	}
	den, err = g.evalF(e.Den, row, runs)
	return num, den, err
}

func (g *Grid) evalF(e *Expr, row rowIdx, runs []metrics.Run) (float64, error) {
	v, err := g.eval(e, row, runs)
	if err != nil {
		return 0, err
	}
	return asFloat(v), nil
}

func asFloat(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	case int:
		return float64(x)
	}
	return 0
}

// label returns the li-th display label of an axis point. The scheduler
// axis has exactly one label per point: the scheduler name itself.
func (g *Grid) label(a Axis, idx, li int) string {
	switch a {
	case Workload:
		return g.Workloads[idx].Labels[li]
	case Config:
		return g.Configs[idx].Labels[li]
	case Sched:
		return g.Scheds[idx]
	}
	return ""
}

// Project renders the grid's table from runs, which must be the results of
// Cells() in enumeration order (run i is the result of cell i).
func (g *Grid) Project(runs []metrics.Run) (*report.Table, error) {
	if want := len(g.Workloads) * len(g.Configs) * len(g.Scheds); len(runs) != want {
		return nil, fmt.Errorf("grid %s: %d runs for %d cells", g.ID, len(runs), want)
	}
	headers := make([]string, len(g.Cols))
	for i, c := range g.Cols {
		headers[i] = c.Name
	}
	t := report.New(g.Title, headers...)
	t.Note = g.Note
	for _, row := range g.rowPoints() {
		vals := make([]any, len(g.Cols))
		for i, col := range g.Cols {
			switch {
			case col.Label != nil:
				var idx int
				switch col.Label.Axis {
				case Workload:
					idx = row.w
				case Config:
					idx = row.c
				case Sched:
					idx = row.s
				}
				vals[i] = g.label(col.Label.Axis, idx, col.Label.LI)
			case col.Only != "" && g.Scheds[row.s] != col.Only:
				vals[i] = ""
			default:
				v, err := g.eval(col.Expr, row, runs)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
		}
		t.AddRow(vals...)
	}
	return t, nil
}

// Validate checks the grid for internal consistency: non-empty axes, valid
// scheduler names, well-formed rows and columns, label indices in range,
// and — for any axis with several points that is not a row axis — that
// every expression leaf pins it (otherwise a column would be ambiguous).
func (g *Grid) Validate() error {
	if len(g.Workloads) == 0 || len(g.Configs) == 0 || len(g.Scheds) == 0 {
		return fmt.Errorf("grid %s: every axis needs at least one point (workloads=%d configs=%d scheds=%d)",
			g.ID, len(g.Workloads), len(g.Configs), len(g.Scheds))
	}
	for _, s := range g.Scheds {
		if _, err := core.Lookup(s, core.Overheads{}, 0); err != nil {
			return fmt.Errorf("grid %s: %w", g.ID, err)
		}
	}
	for _, w := range g.Workloads {
		if err := w.Spec.Validate(); err != nil {
			return fmt.Errorf("grid %s: %w", g.ID, err)
		}
	}
	for _, c := range g.Configs {
		if err := c.Config.Validate(); err != nil {
			return fmt.Errorf("grid %s: %w", g.ID, err)
		}
	}
	seen := map[Axis]bool{}
	for _, ax := range g.Rows {
		if ax != Workload && ax != Config && ax != Sched {
			return fmt.Errorf("grid %s: unknown row axis %q", g.ID, ax)
		}
		if seen[ax] {
			return fmt.Errorf("grid %s: row axis %q listed twice", g.ID, ax)
		}
		seen[ax] = true
	}
	if len(g.Cols) == 0 {
		return fmt.Errorf("grid %s: no columns", g.ID)
	}
	for _, col := range g.Cols {
		if (col.Label == nil) == (col.Expr == nil) {
			return fmt.Errorf("grid %s: column %q must have exactly one of a label or an expression", g.ID, col.Name)
		}
		if col.Label != nil {
			if err := g.validLabel(col); err != nil {
				return err
			}
			continue
		}
		if col.Only != "" {
			if _, err := g.schedIndex(col.Only); err != nil {
				return fmt.Errorf("grid %s: column %q: only=%q is not on the sched axis", g.ID, col.Name, col.Only)
			}
			// The gate compares against the row's scheduler, so it is
			// meaningless — always empty or never gating — unless the
			// scheduler varies by row.
			if !seen[Sched] {
				return fmt.Errorf("grid %s: column %q: only=%q needs sched on the row axes", g.ID, col.Name, col.Only)
			}
		}
		if err := g.validExpr(col.Name, col.Expr, seen); err != nil {
			return err
		}
	}
	return nil
}

func (g *Grid) validLabel(col Column) error {
	l := col.Label
	n := g.axisLen(l.Axis)
	if n == 0 {
		return fmt.Errorf("grid %s: label column %q references unknown axis %q", g.ID, col.Name, l.Axis)
	}
	for i := 0; i < n; i++ {
		labels := 1 // sched points label themselves
		switch l.Axis {
		case Workload:
			labels = len(g.Workloads[i].Labels)
		case Config:
			labels = len(g.Configs[i].Labels)
		}
		if l.LI < 0 || l.LI >= labels {
			return fmt.Errorf("grid %s: label column %q wants label %d of %s point %d, which has %d",
				g.ID, col.Name, l.LI, l.Axis, i, labels)
		}
	}
	return nil
}

func (g *Grid) validExpr(col string, e *Expr, rowAxes map[Axis]bool) error {
	if e == nil {
		return fmt.Errorf("grid %s: column %q: missing expression operand", g.ID, col)
	}
	if e.Metric != "" {
		if e.Op != "" || e.Num != nil || e.Den != nil {
			return fmt.Errorf("grid %s: column %q: leaf %q cannot also have an op", g.ID, col, e.Metric)
		}
		if _, ok := metricFn(e.Metric); !ok {
			return fmt.Errorf("grid %s: column %q: unknown metric %q (valid: %v)", g.ID, col, e.Metric, metricNames())
		}
		return g.validSel(col, e.At, rowAxes)
	}
	switch e.Op {
	case "ratio", "pct-less":
		if err := g.validExpr(col, e.Num, rowAxes); err != nil {
			return err
		}
		return g.validExpr(col, e.Den, rowAxes)
	case "per1k":
		if e.Den != nil {
			return fmt.Errorf("grid %s: column %q: per1k takes one operand", g.ID, col)
		}
		if e.Num == nil || e.Num.Metric == "" {
			return fmt.Errorf("grid %s: column %q: per1k needs a leaf metric operand (its cell supplies the instruction count)", g.ID, col)
		}
		return g.validExpr(col, e.Num, rowAxes)
	case "":
		return fmt.Errorf("grid %s: column %q: expression has neither a metric nor an op", g.ID, col)
	default:
		return fmt.Errorf("grid %s: column %q: unknown op %q (valid: ratio, pct-less, per1k)", g.ID, col, e.Op)
	}
}

// validSel checks pins are in range and that any multi-point axis outside
// Rows is pinned.
func (g *Grid) validSel(col string, at Sel, rowAxes map[Axis]bool) error {
	if at.Workload != nil && (*at.Workload < 0 || *at.Workload >= len(g.Workloads)) {
		return fmt.Errorf("grid %s: column %q: workload pin %d out of range [0,%d)", g.ID, col, *at.Workload, len(g.Workloads))
	}
	if at.Config != nil && (*at.Config < 0 || *at.Config >= len(g.Configs)) {
		return fmt.Errorf("grid %s: column %q: config pin %d out of range [0,%d)", g.ID, col, *at.Config, len(g.Configs))
	}
	if at.Sched != nil {
		if _, err := g.schedIndex(*at.Sched); err != nil {
			return fmt.Errorf("grid %s: column %q: %v", g.ID, col, err)
		}
	}
	if !rowAxes[Workload] && at.Workload == nil && len(g.Workloads) > 1 {
		return fmt.Errorf("grid %s: column %q: the workload axis has %d points but is neither a row axis nor pinned", g.ID, col, len(g.Workloads))
	}
	if !rowAxes[Config] && at.Config == nil && len(g.Configs) > 1 {
		return fmt.Errorf("grid %s: column %q: the config axis has %d points but is neither a row axis nor pinned", g.ID, col, len(g.Configs))
	}
	if !rowAxes[Sched] && at.Sched == nil && len(g.Scheds) > 1 {
		return fmt.Errorf("grid %s: column %q: the sched axis has %d points but is neither a row axis nor pinned", g.ID, col, len(g.Scheds))
	}
	return nil
}
