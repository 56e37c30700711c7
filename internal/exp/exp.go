// Package exp defines the reproduction's experiments: for every figure and
// finding in the paper there is an experiment id that regenerates the
// corresponding table or series. EXPERIMENTS.md carries the full index (and
// DESIGN.md the architecture notes behind it); this package is the single
// implementation used by cmd/sweep, the examples, and the benchmark harness,
// so all three always agree.
package exp

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rcache"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Seed fixes all experiment randomness (data generation and WS victim
// selection). Published numbers in EXPERIMENTS.md use this seed.
const Seed = 20060730 // SPAA'06 opening day

// Parallelism is the number of simulation cells run concurrently by the
// experiments (1 = serial). Each cell is deterministic and independent, and
// the runner preserves submit order, so results are identical at every
// setting; only wall time changes. cmd/sweep's -parallel flag sets this.
var Parallelism = runtime.GOMAXPROCS(0)

// Cache, when non-nil, memoizes simulation cells by their content address
// (config + spec + scheduler + Seed + quick) through runCell. Because every
// cell is a deterministic function of that identity, a cached Run is byte-
// for-byte the record a fresh simulation would produce, so experiment output
// is identical with the cache off, cold, or warm. Set it (like Parallelism)
// before running experiments; cmd/sweep wires it to the -cache flags.
var Cache *rcache.Store

// Tracer, when non-nil, records one obs span per simulation cell run through
// runCell: wall time split into cache-lookup / pool-acquire / build / reset /
// simulate / store phases, plus the resolving outcome. The tracer only
// observes — results and stdout are byte-identical with it on or off
// (TestTraceByteIdentical) — so cmd/sweep can enable it per run via
// -trace-out. Set (like Parallelism and Cache) before running experiments.
var Tracer *obs.Tracer

// InstancePool memoizes built workload instances below the cell cache: an
// rcache miss still reuses the (reset) instance a sibling scheduler arm
// already built for the same spec, halving-or-better cold-sweep build work.
// RunGridStream announces every cell's acquire to it up front and withdraws
// what the cells never acquire, so an idle copy lives only while a pending
// cell wants its spec. A pooled reuse is invisible in results —
// Instance.Reset restores the build-time bytes, so output is byte-identical
// with the pool on or off (TestPooledMatchesUnpooled). nil disables pooling
// (every run builds fresh); the cold-sweep benchmark pair flips this.
var InstancePool = workloads.DefaultPool

// runCell simulates one grid cell, consulting the injected cache when
// present. quick is part of the cell's cache identity: published (full) and
// quick tables never share entries even where their shrunken parameters
// happen to collide. Concurrent requests for the same key — e.g.
// fig1-misses and fig1-speedup racing to the same mergesort cells under
// `sweep -exp all` — simulate once; the cache's singleflight layer parks the
// latecomer on the first result.
//
// The cell runs under pprof labels naming its (workload, config, sched)
// identity, so a CPU profile taken over a sweep (`sweep -cpuprofile`)
// attributes samples to cells, and under a span on tr (nil records nothing)
// timing the execution phases. The registry path passes the package-level
// Tracer, while the job service (internal/jobs) hands every grid its own
// per-job tracer so one service process can attribute spans to submissions.
//
// The caller has announced the cell's acquire to InstancePool; runCell
// settles it. Simulating acquires (and so consumes it), and any other
// resolution — a hit in any cache tier, or a singleflight wait on another
// cell's flight — withdraws it.
func runCell(c grid.Cell, quick bool, tr *obs.Tracer) (r metrics.Run, err error) {
	computed := false
	defer func() {
		if !computed {
			InstancePool.Withdraw(c.Spec)
		}
	}()
	sp := tr.StartSpan(c.Spec.String(), c.Config.Name, c.Sched, quick)
	defer sp.Finish()
	labels := pprof.Labels("workload", c.Spec.Name, "config", c.Config.Name, "sched", c.Sched)
	pprof.Do(context.Background(), labels, func(context.Context) {
		compute := func() (metrics.Run, error) {
			computed = true
			return RunOneSeeded(c.Config, c.Spec, c.Sched, Seed, sp)
		}
		if Cache == nil {
			sp.SetOutcome("uncached")
			r, err = compute()
			return
		}
		r, err = Cache.DoSpan(rcache.KeyOf(c.Config, c.Spec, c.Sched, Seed, quick), sp, compute)
	})
	return r, err
}

// OverheadsOf extracts the scheduler cost knobs from a machine config.
func OverheadsOf(cfg machine.Config) core.Overheads {
	return core.Overheads{
		PDFDispatch:  cfg.PDFDispatch,
		WSPopLocal:   cfg.WSPopLocal,
		WSStealProbe: cfg.WSStealProbe,
		WSStealXfer:  cfg.WSStealXfer,
	}
}

// RunOne is RunOneSeeded at the experiments' Seed, recording no span.
func RunOne(cfg machine.Config, spec workloads.Spec, sched string) (metrics.Run, error) {
	return RunOneSeeded(cfg, spec, sched, Seed, nil)
}

// RunOneSeeded acquires an instance of spec (from InstancePool when
// enabled, freshly built otherwise) and simulates it on cfg under the named
// scheduler with an explicit scheduler seed (WS victim selection),
// verifying functional correctness. This is the uncached compute path;
// grid cells go through runCell, which layers the optional Cache on top.
// Instance acquisition times into sp's pool-acquire/build/reset phases
// (split by Acquire) and everything from arming through verification into
// its simulate phase; a nil sp records nothing. cmd/cmpsim exposes the seed
// as a flag, experiments pin it to Seed.
func RunOneSeeded(cfg machine.Config, spec workloads.Spec, sched string, seed uint64, sp *obs.Span) (metrics.Run, error) {
	in := InstancePool.Acquire(spec, sp)
	endSim := sp.StartPhase(obs.PhaseSimulate)
	defer endSim()
	in.BeginRun()
	s := core.ByName(sched, OverheadsOf(cfg), seed)
	e := sim.New(cfg, in.Graph, s, nil)
	r := e.Run()
	r.Workload = spec.Name
	if err := in.Verify(); err != nil {
		// A failed instance never re-enters the pool: its data (or worse,
		// its build) is suspect, and a reset cannot prove otherwise.
		InstancePool.Discard(in)
		return r, fmt.Errorf("exp: %v under %s on %s: %w", spec, sched, cfg.Name, err)
	}
	InstancePool.Release(in)
	return r, nil
}

// Result bundles an experiment's tables with the raw runs behind them.
type Result struct {
	ID     string
	Tables []*report.Table
	Runs   []metrics.Run
}

// An experiment produces a Result. quick mode shrinks problem sizes by ~8x
// so the whole suite runs inside `go test`; published numbers use full mode.
// Every experiment but one is declarative: grid builds the scenario Grid for
// the requested mode and RunGrid executes it. a5-premature's run function
// only wraps its grid, whose labels need a DAG analysis on a pooled
// instance first. t4-multiprog alone keeps a bespoke run function: it
// time-slices two engines over one shared hierarchy, so its cells are not
// independent.
type experiment struct {
	id   string
	desc string
	run  func(quick bool) (*Result, error)
	grid func(quick bool) *grid.Grid
}

var registry = []experiment{
	{id: "fig1-misses", desc: "Figure 1 (left): mergesort L2 misses per 1000 instructions vs cores", grid: gridFig1Misses},
	{id: "fig1-speedup", desc: "Figure 1 (right): mergesort speedup over 1 core vs cores", grid: gridFig1Speedup},
	{id: "t1-dc", desc: "Finding 1: divide-and-conquer class, PDF vs WS at 16/32 cores", grid: gridT1DC},
	{id: "t1-irregular", desc: "Finding 1: bandwidth-limited irregular class, PDF vs WS", grid: gridT1Irregular},
	{id: "t2-neutral", desc: "Finding 2: limited-reuse and compute-bound classes, PDF ~ WS", grid: gridT2Neutral},
	{id: "t3-power", desc: "Power-down: runtime vs fraction of L2 ways powered off", grid: gridT3Power},
	{id: "t4-multiprog", desc: "Multiprogramming: L2 survival across context switches", run: runT4Multiprog},
	{id: "t5-coarse", desc: "Finding 3: coarse-grained SMP-style threading loses the PDF advantage", grid: gridT5Coarse},
	{id: "a1-grain", desc: "Ablation: task granularity sweep", grid: gridA1Grain},
	{id: "a2-l2size", desc: "Ablation: L2 capacity sweep at 16 cores", grid: gridA2L2Size},
	{id: "a3-bandwidth", desc: "Ablation: off-chip bandwidth sweep at 16 cores", grid: gridA3Bandwidth},
	{id: "a4-stealpolicy", desc: "Ablation: scheduler policy variants", grid: gridA4Policies},
	{id: "a5-premature", desc: "Premature nodes: the SPAA'04 working-set bound, measured", run: runA5Premature},
}

// IDs lists experiment ids in canonical order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Describe returns the one-line description of an experiment id.
func Describe(id string) string {
	for _, e := range registry {
		if e.id == id {
			return e.desc
		}
	}
	return ""
}

// Run executes the experiment with the given id.
func Run(id string, quick bool) (*Result, error) {
	for _, e := range registry {
		if e.id == id {
			if e.grid != nil {
				return RunGrid(e.grid(quick), quick)
			}
			return e.run(quick)
		}
	}
	return nil, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, IDs())
}

// RunGrid executes a declarative scenario grid: its cells are enumerated in
// the grid's canonical order and flow through the same budgeted runner,
// instance pool, and content-addressed cache path every registry experiment
// uses — then the grid projects its table from the results. quick is part of
// each cell's cache identity exactly as for registry experiments;
// user-authored grids always run with quick=false (their sizes are
// explicit), which also lets them share warm cells with full-size registry
// sweeps and cmpsim.
func RunGrid(g *grid.Grid, quick bool) (*Result, error) {
	return RunGridStream(context.Background(), g, quick, Tracer, nil)
}

// RunGridStream is RunGrid for long-running callers (the sweepd job
// service): identical execution and results — the same cells in the same
// canonical order through the same runner/pool/cache path, so the projected
// tables are byte-identical to RunGrid's — plus three service affordances:
//
//   - ctx cancels between cells: in-flight cells complete (a simulation is
//     never abandoned half-observed), unstarted cells are skipped, and the
//     ctx error is returned wrapped with the grid id.
//   - tr scopes spans to this call instead of the package-level Tracer, so a
//     service process can attribute spans per submission. Pass Tracer (or
//     nil) to keep the CLI behavior.
//   - progress, when non-nil, is called after each cell completes in
//     canonical order with (done, total) — done is strictly increasing, so
//     callers can derive percent-complete without locking. It is invoked on
//     the calling goroutine's yield path and must not block.
//
// Every cell's instance acquire is announced to InstancePool on entry, and
// whatever no cell acquired is withdrawn by the time RunGridStream returns,
// on every path. Cells of one spec are contiguous in canonical order
// (workload is the outermost axis), so an idle copy waits only while its
// spec's block of cells runs.
func RunGridStream(ctx context.Context, g *grid.Grid, quick bool, tr *obs.Tracer, progress func(done, total int)) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cells := g.Cells()
	n := len(cells)
	for _, c := range cells {
		InstancePool.Expect(c.Spec)
	}
	// ran[i] marks cells handed to runCell, which settles their
	// announcements; Stream has finished every job when it returns, so the
	// deferred read needs no lock.
	ran := make([]bool, n)
	defer func() {
		for i, c := range cells {
			if !ran[i] {
				InstancePool.Withdraw(c.Spec)
			}
		}
	}()
	jobs := make([]runner.Job[metrics.Run], n)
	for i, c := range cells {
		jobs[i] = func() (metrics.Run, error) {
			// Checked at claim time: a cancelled grid stops starting cells
			// immediately instead of waiting for the yield path to notice.
			if err := ctx.Err(); err != nil {
				return metrics.Run{}, err
			}
			ran[i] = true
			return runCell(c, quick, tr)
		}
	}
	runs := make([]metrics.Run, n)
	done := 0
	err := runner.Stream(Parallelism, jobs, func(i int, v metrics.Run, err error) error {
		if err != nil {
			return err
		}
		runs[i] = v
		done++
		if progress != nil {
			progress(done, n)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", g.ID, err)
	}
	t, err := g.Project(runs)
	if err != nil {
		return nil, err
	}
	return &Result{ID: g.ID, Tables: []*report.Table{t}, Runs: runs}, nil
}

// ratio returns a/b, or 0 when b is 0 — the guard every derived table
// column uses (the grid layer's "ratio" op has the same semantics).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sizing returns n scaled down 8x in quick mode (minimum floor keeps graphs
// meaningful).
func sizing(n int, quick bool) int {
	if quick {
		n /= 8
		if n < 4096 {
			n = 4096
		}
	}
	return n
}
