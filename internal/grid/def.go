package grid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// Def is a user-authored grid definition: the JSON schema `sweep -grid
// FILE` reads and the value `sweep -grid-expr` parses into. Every list is
// an axis; the grid enumerates their cartesian product. A Def is friendlier
// than a Grid — workloads are named, machine points are overrides on the
// default configuration for a core count, and the table projection has a
// sensible default — and Resolve lowers it to a validated Grid.
type Def struct {
	Title string `json:"title,omitempty"`
	Note  string `json:"note,omitempty"`

	// Workload axes: the cross product of names, problem sizes, grains,
	// iteration counts, and data seeds.
	Workload []string `json:"workload"`
	N        []int    `json:"n,omitempty"`     // default 65536
	Grain    []int    `json:"grain,omitempty"` // default 2048
	Iters    []int    `json:"iters,omitempty"` // default 0 (workload-specific default)
	Seed     []uint64 `json:"seed,omitempty"`  // default exp.Seed (passed to Resolve)

	// Machine axes: each point derives machine.Default(cores) and applies
	// the overrides. l2 sizes accept byte-size strings ("512KiB", "4MiB").
	Cores  []int     `json:"cores"`
	L2     []string  `json:"l2,omitempty"`
	L2Ways []int     `json:"l2ways,omitempty"`
	BW     []float64 `json:"bw,omitempty"` // bytes/cycle; 0 = infinite
	Masked []int     `json:"masked,omitempty"`

	// Scheduler axis; default pdf, ws.
	Sched []string `json:"sched,omitempty"`

	// Projection. Metrics picks the per-scheduler value columns (default
	// cycles + l2-mpki); Speedup adds per-scheduler speedup over the first
	// machine point; Rows overrides the row axes (default workload,
	// config — put "sched" here to tabulate schedulers as rows); Columns,
	// when given, replaces the default projection entirely with explicit
	// label/expression columns.
	Metrics []string    `json:"metrics,omitempty"`
	Speedup bool        `json:"speedup,omitempty"`
	Rows    []string    `json:"rows,omitempty"`
	Columns []DefColumn `json:"columns,omitempty"`
}

// DefColumn is one explicit column of a Def's projection: either an axis
// label (by axis name) or an expression.
type DefColumn struct {
	Header string `json:"header,omitempty"`
	Label  string `json:"label,omitempty"`
	Only   string `json:"only,omitempty"`
	DefExpr
}

// DefExpr mirrors Expr for JSON authorship: a leaf metric with optional
// sched/workload/config pins, or an op over num/den sub-expressions.
type DefExpr struct {
	Metric   string   `json:"metric,omitempty"`
	Sched    string   `json:"sched,omitempty"`
	Workload *int     `json:"workload,omitempty"`
	Config   *int     `json:"config,omitempty"`
	Op       string   `json:"op,omitempty"`
	Num      *DefExpr `json:"num,omitempty"`
	Den      *DefExpr `json:"den,omitempty"`
}

// MaxCells bounds how many cells a Def may enumerate — a typo'd range
// should fail fast, not queue a million simulations.
const MaxCells = 65536

// ParseDef decodes a JSON grid definition, rejecting unknown fields so a
// misspelled axis errors instead of silently sweeping nothing.
func ParseDef(data []byte) (*Def, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	d := &Def{}
	if err := dec.Decode(d); err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	return d, nil
}

// labelRefs maps Def axis names to the label layout Resolve builds:
// workload points carry [name n grain iters seed], machine points carry
// [cores l2 l2ways bw masked], scheduler points label themselves.
var labelRefs = map[string]LabelRef{
	"workload": {Workload, 0},
	"n":        {Workload, 1},
	"grain":    {Workload, 2},
	"iters":    {Workload, 3},
	"seed":     {Workload, 4},
	"cores":    {Config, 0},
	"l2":       {Config, 1},
	"l2ways":   {Config, 2},
	"bw":       {Config, 3},
	"masked":   {Config, 4},
	"sched":    {Sched, 0},
}

// labelOrder is the canonical ordering of default label columns.
var labelOrder = []string{"workload", "n", "grain", "iters", "seed", "cores", "l2", "l2ways", "bw", "masked"}

// Resolve lowers the definition to a validated Grid. defaultSeed fills the
// seed axis when the definition leaves it out (cmd/sweep passes exp.Seed so
// user cells line up with the registry's).
func (d *Def) Resolve(defaultSeed uint64) (*Grid, error) {
	if len(d.Workload) == 0 {
		return nil, fmt.Errorf("grid: a grid needs at least one workload (valid: %s)", strings.Join(workloads.Names(), ", "))
	}
	if len(d.Cores) == 0 {
		return nil, fmt.Errorf("grid: a grid needs at least one cores value")
	}
	ns := defaultInts(d.N, 65536)
	grains := defaultInts(d.Grain, 2048)
	iters := defaultInts(d.Iters, 0)
	seeds := d.Seed
	if len(seeds) == 0 {
		seeds = []uint64{defaultSeed}
	}
	scheds := d.Sched
	if len(scheds) == 0 {
		scheds = []string{"pdf", "ws"}
	}
	for _, s := range scheds {
		if _, err := core.Lookup(s, core.Overheads{}, 0); err != nil {
			return nil, fmt.Errorf("grid: %w", err)
		}
	}

	// Bound the product before materializing any axis points: a typo'd
	// range must fail fast, not allocate millions of points first.
	if cells, ok := product(
		len(d.Workload), len(ns), len(grains), len(iters), len(seeds),
		len(d.Cores), max1(len(d.L2)), max1(len(d.L2Ways)), max1(len(d.BW)), max1(len(d.Masked)),
		len(scheds)); !ok || cells > MaxCells {
		return nil, fmt.Errorf("grid: more than %d cells — shrink an axis", MaxCells)
	}

	wps, err := d.workloadPoints(ns, grains, iters, seeds)
	if err != nil {
		return nil, err
	}
	cps, err := d.configPoints()
	if err != nil {
		return nil, err
	}

	rows, schedInRows, err := d.rowAxes()
	if err != nil {
		return nil, err
	}
	cols, err := d.columns(len(ns), len(grains), len(iters), len(seeds), scheds, schedInRows)
	if err != nil {
		return nil, err
	}

	title := d.Title
	if title == "" {
		title = "Custom grid: " + strings.Join(d.Workload, ", ")
	}
	g := &Grid{
		ID:        "custom-grid",
		Title:     title,
		Note:      d.Note,
		Workloads: wps,
		Configs:   cps,
		Scheds:    scheds,
		Rows:      rows,
		Cols:      cols,
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	defsResolved.Add(1)
	return g, nil
}

func defaultInts(v []int, def int) []int {
	if len(v) == 0 {
		return []int{def}
	}
	return v
}

// max1 treats an absent (empty) override axis as one point.
func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// product multiplies axis lengths, reporting !ok once the running product
// leaves (0, MaxCells] — saturating instead of overflowing.
func product(ns ...int) (int, bool) {
	p := 1
	for _, n := range ns {
		if n <= 0 || n > MaxCells {
			return 0, false
		}
		p *= n
		if p > MaxCells {
			return p, false
		}
	}
	return p, true
}

func (d *Def) workloadPoints(ns, grains, iters []int, seeds []uint64) ([]WorkloadPoint, error) {
	var wps []WorkloadPoint
	for _, name := range d.Workload {
		for _, n := range ns {
			for _, gr := range grains {
				for _, it := range iters {
					for _, seed := range seeds {
						spec := workloads.Spec{Name: name, N: n, Grain: gr, Iters: it, Seed: seed}
						if err := spec.Validate(); err != nil {
							return nil, fmt.Errorf("grid: %w", err)
						}
						wps = append(wps, WorkloadPoint{
							Labels: []string{name, strconv.Itoa(n), strconv.Itoa(gr), strconv.Itoa(it), strconv.FormatUint(seed, 10)},
							Spec:   spec,
						})
					}
				}
			}
		}
	}
	return wps, nil
}

func (d *Def) configPoints() ([]ConfigPoint, error) {
	// Validate override values before -1 becomes the "no override" marker.
	for _, w := range d.L2Ways {
		if w <= 0 {
			return nil, fmt.Errorf("grid: l2ways must be positive, got %d", w)
		}
	}
	for _, m := range d.Masked {
		if m < 0 {
			return nil, fmt.Errorf("grid: masked must be non-negative, got %d", m)
		}
	}
	for _, bw := range d.BW {
		if bw < 0 {
			return nil, fmt.Errorf("grid: bw must be non-negative (0 = infinite), got %g", bw)
		}
	}
	l2s := d.L2
	if len(l2s) == 0 {
		l2s = []string{""}
	}
	ways := defaultInts(d.L2Ways, -1)
	bws := d.BW
	if len(bws) == 0 {
		bws = []float64{-1}
	}
	masked := defaultInts(d.Masked, -1)

	var cps []ConfigPoint
	for _, c := range d.Cores {
		if c < 1 || c > 64 {
			return nil, fmt.Errorf("grid: cores must be in [1, 64], got %d", c)
		}
		for _, l2 := range l2s {
			for _, w := range ways {
				for _, bw := range bws {
					for _, m := range masked {
						// The name stays the per-core-count default: Name is
						// part of Config.Fingerprint, and every overridden
						// field is already in the fingerprint, so keeping the
						// default name means a grid cell whose resolved config
						// is field-identical to a registry or cmpsim cell
						// shares its content address (e.g. a bw-override grid
						// aliases a3-bandwidth's cells). Label columns, not
						// the name, carry the override for display.
						cfg := machine.Default(c)
						if l2 != "" {
							b, err := parseBytes(l2)
							if err != nil {
								return nil, fmt.Errorf("grid: l2 %q: %w", l2, err)
							}
							cfg.L2Size = b
						}
						if w >= 0 {
							cfg.L2Ways = w
						}
						if bw >= 0 {
							cfg.BusBPC = bw
						}
						if m >= 0 {
							cfg.L2MaskedWays = m
						}
						if err := cfg.Validate(); err != nil {
							return nil, fmt.Errorf("grid: %w", err)
						}
						cps = append(cps, ConfigPoint{
							Labels: []string{
								strconv.Itoa(cfg.Cores),
								FmtBytes(cfg.L2Size),
								strconv.Itoa(cfg.L2Ways),
								fmtBW(cfg.BusBPC),
								strconv.Itoa(cfg.L2MaskedWays),
							},
							Config: cfg,
						})
					}
				}
			}
		}
	}
	return cps, nil
}

func (d *Def) rowAxes() (rows []Axis, schedInRows bool, err error) {
	if len(d.Rows) == 0 {
		return []Axis{Workload, Config}, false, nil
	}
	for _, r := range d.Rows {
		ax := Axis(r)
		if ax != Workload && ax != Config && ax != Sched {
			return nil, false, fmt.Errorf("grid: unknown row axis %q (valid: workload, config, sched)", r)
		}
		rows = append(rows, ax)
		if ax == Sched {
			schedInRows = true
		}
	}
	return rows, schedInRows, nil
}

// columns builds the projection: explicit Columns when given, otherwise
// label columns for every multi-valued axis plus per-scheduler metric
// columns (with a second-over-first ratio column when exactly two
// schedulers are swept) and optional speedup-vs-first-machine-point.
func (d *Def) columns(nN, nGrain, nIters, nSeed int, scheds []string, schedInRows bool) ([]Column, error) {
	if len(d.Columns) > 0 {
		return d.explicitColumns()
	}
	metricsList := d.Metrics
	if len(metricsList) == 0 {
		metricsList = []string{"cycles", "l2-mpki"}
	}

	axisLens := map[string]int{
		"workload": len(d.Workload), "n": nN, "grain": nGrain, "iters": nIters, "seed": nSeed,
		"cores": len(d.Cores), "l2": len(d.L2), "l2ways": len(d.L2Ways), "bw": len(d.BW), "masked": len(d.Masked),
	}
	var cols []Column
	for _, name := range labelOrder {
		if axisLens[name] > 1 {
			cols = append(cols, Label(name, labelRefs[name].Axis, labelRefs[name].LI))
		}
	}
	if len(cols) == 0 {
		cols = append(cols, Label("workload", Workload, 0))
	}
	if schedInRows {
		cols = append(cols, Label("sched", Sched, 0))
		for _, m := range metricsList {
			cols = append(cols, Col(m, M(m)))
		}
		if d.Speedup {
			cols = append(cols, Col("speedup", Ratio(M("cycles").AtConfig(0), M("cycles"))))
		}
		return cols, nil
	}
	for _, m := range metricsList {
		if len(scheds) == 1 {
			cols = append(cols, Col(m, M(m).AtSched(scheds[0])))
			continue
		}
		for _, s := range scheds {
			cols = append(cols, Col(s+" "+m, M(m).AtSched(s)))
		}
		if len(scheds) == 2 {
			cols = append(cols, Col(scheds[1]+"/"+scheds[0]+" "+m,
				Ratio(M(m).AtSched(scheds[1]), M(m).AtSched(scheds[0]))))
		}
	}
	if d.Speedup {
		for _, s := range scheds {
			name := "speedup " + s
			if len(scheds) == 1 {
				name = "speedup"
			}
			cols = append(cols, Col(name, Ratio(M("cycles").AtSched(s).AtConfig(0), M("cycles").AtSched(s))))
		}
	}
	return cols, nil
}

func (d *Def) explicitColumns() ([]Column, error) {
	var cols []Column
	for i, dc := range d.Columns {
		switch {
		case dc.Label != "":
			ref, ok := labelRefs[dc.Label]
			if !ok {
				return nil, fmt.Errorf("grid: column %d: unknown label %q (valid: %s, sched)", i, dc.Label, strings.Join(labelOrder, ", "))
			}
			name := dc.Header
			if name == "" {
				name = dc.Label
			}
			cols = append(cols, Label(name, ref.Axis, ref.LI))
		default:
			e, err := dc.DefExpr.expr()
			if err != nil {
				return nil, fmt.Errorf("grid: column %d: %w", i, err)
			}
			name := dc.Header
			if name == "" {
				name = dc.Metric
			}
			if name == "" {
				return nil, fmt.Errorf("grid: column %d: derived columns need a header", i)
			}
			cols = append(cols, Column{Name: name, Expr: e, Only: dc.Only})
		}
	}
	return cols, nil
}

func (e *DefExpr) expr() (*Expr, error) {
	out := &Expr{Metric: e.Metric, Op: e.Op}
	out.At.Workload = e.Workload
	out.At.Config = e.Config
	if e.Sched != "" {
		s := e.Sched
		out.At.Sched = &s
	}
	var err error
	if e.Num != nil {
		if out.Num, err = e.Num.expr(); err != nil {
			return nil, err
		}
	}
	if e.Den != nil {
		if out.Den, err = e.Den.expr(); err != nil {
			return nil, err
		}
	}
	if out.Metric == "" && out.Op == "" {
		return nil, fmt.Errorf("expression needs a metric or an op")
	}
	return out, nil
}

// parseBytes reads a byte size: a plain integer, or one with a B/KiB/MiB/
// GiB suffix.
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	num := s
	switch {
	case strings.HasSuffix(s, "GiB"):
		mult, num = 1<<30, strings.TrimSuffix(s, "GiB")
	case strings.HasSuffix(s, "MiB"):
		mult, num = 1<<20, strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "KiB"):
		mult, num = 1<<10, strings.TrimSuffix(s, "KiB")
	case strings.HasSuffix(s, "B"):
		num = strings.TrimSuffix(s, "B")
	}
	v, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("not a byte size (use e.g. 524288, 512KiB, 4MiB)")
	}
	if v <= 0 {
		return 0, fmt.Errorf("byte size must be positive")
	}
	if v > (1<<63-1)/mult {
		return 0, fmt.Errorf("byte size overflows")
	}
	return v * mult, nil
}

// FmtBytes renders a byte count exactly, in the largest of MiB, KiB or B
// that divides it: 1536 KiB prints as "1536KiB", never a truncated "1MiB".
func FmtBytes(b int64) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return strconv.FormatInt(b>>20, 10) + "MiB"
	case b >= 1<<10 && b%(1<<10) == 0:
		return strconv.FormatInt(b>>10, 10) + "KiB"
	default:
		return strconv.FormatInt(b, 10) + "B"
	}
}

func fmtBW(bw float64) string {
	if bw == 0 {
		return "inf"
	}
	return strconv.FormatFloat(bw, 'g', -1, 64)
}
