// Command sweep regenerates the paper's figures and findings tables by
// experiment id (see EXPERIMENTS.md for the per-experiment index and
// DESIGN.md for the architecture notes), and runs user-authored scenario
// grids over the same execution machinery.
//
// Usage:
//
//	sweep -exp fig1-misses          # one experiment
//	sweep -exp all                  # the whole evaluation
//	sweep -exp all -parallel 8      # fan cells out over 8 workers
//	sweep -exp all -cache ~/.repro-cache   # memoize cells across runs
//	sweep -exp all -cache DIR -cache-remote http://host:8344   # shared store
//	sweep -exp fig1-speedup -csv    # machine-readable series
//	sweep -list                     # available experiment ids
//	sweep -cache DIR -cache-gc      # prune dead cache schema versions
//	sweep -cache DIR -cache-gc -cache-max-bytes 268435456   # + LRU size budget
//
// User grids (EXPERIMENTS.md, "Declarative scenario grids") sweep any
// (workload x machine x scheduler) product the registry never wrote down —
// schedulers: pdf, ws, ws-stealnewest, fifo:
//
//	sweep -grid mygrid.json         # a JSON grid definition
//	sweep -grid-expr 'workload=mergesort,fft;cores=1..32;sched=pdf,ws'
//	sweep -grid-expr 'workload=spmv;iters=3;cores=16;bw=2..16;metrics=cycles,bus-util'
//
// Grid cells flow through the same runner, instance pool, and result cache
// as registry experiments: -parallel, -cache, -cache-remote, -stats,
// and -csv all apply, output is byte-identical at any parallelism and with
// the cache off, cold, or warm. Grid sizes are explicit, so -quick does not
// apply (it is rejected); grid cells are keyed full-size, so a grid cell
// whose resolved (config, workload, scheduler) matches a full-size registry
// or cmpsim cell field-for-field is served from the same cache entry
// (override grids keep the per-core-count default config name for exactly
// this reason).
//
// -parallel N (default GOMAXPROCS) runs independent simulation cells — and,
// for -exp all, distinct experiment ids — on N concurrent workers. The two
// levels of fan-out share one process-wide budget of N workers, so -parallel
// never oversubscribes. Every cell is deterministic and results are always
// emitted in canonical order, so the output is byte-identical at any
// parallelism level; -parallel 1 forces the serial path.
//
// Caching. Every cell is a deterministic function of its identity (machine
// config, workload spec, scheduler, seed, quick), so its result can be
// memoized under a content address and replayed instead of re-simulated —
// tables are byte-identical either way:
//
//	-cache DIR       persist results under DIR (shared across runs; a warm
//	                 repeat of the same sweep simulates no cells — only
//	                 t4-multiprog, whose engines share state mid-run and so
//	                 bypass the cell cache, still simulates). Within one
//	                 run, cells repeated across experiments are deduplicated
//	                 in memory even without -cache.
//	-cache-remote URL[,URL...]  layer one or more shared cached servers
//	                 (cmd/cached) behind the local tiers: cells missing
//	                 locally are fetched from the fleet (and filled into
//	                 DIR), computed cells are written back asynchronously.
//	                 Multiple URLs shard keys by client-side consistent
//	                 hashing; a dead or sick shard degrades only its ring
//	                 segment to local-only — it never fails the sweep.
//	-cache-replicas K  write each cell to its shard and K distinct ring
//	                 successors, and read through the same set before
//	                 declaring a miss, so one lost shard costs no warmth.
//	-cache-readonly  consult DIR/URL but never write either (CI-friendly)
//	-cache-gc        prune entries from dead schema versions in DIR — and,
//	                 with -cache-max-bytes N, LRU-evict down to the byte
//	                 budget, reporting what was reclaimed — then exit
//
// Observability. Telemetry writes to stderr or to files, never stdout, so
// tables stay byte-identical with any combination of these flags on or off
// (see DESIGN.md, "Observability"):
//
//	-stats           dump the unified metric registry — runner, sim, grid,
//	                 rcache (hits by tier, misses, per-shard latches), and
//	                 instance-pool counters under one stable naming — in
//	                 Prometheus text format on exit
//	-trace-out FILE  record one JSON span per simulation cell (wall time
//	                 split into cache-lookup / pool-acquire / build / reset /
//	                 simulate / store phases, plus the resolving tier) and
//	                 print a slowest-cells summary to stderr
//	-cpuprofile FILE write a CPU profile whose samples carry (workload,
//	                 config, sched) pprof labels, so `go tool pprof
//	                 -tagfocus` isolates one cell's cost
//	-memprofile FILE write a heap profile on exit
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/rcache"
	"repro/internal/runner"
)

func main() {
	var (
		id       = flag.String("exp", "all", "experiment id, or 'all'")
		quick    = flag.Bool("quick", false, "reduced problem sizes (~8x smaller)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulation workers (1 = serial)")
		gridFile = flag.String("grid", "", "run a user-authored grid definition (JSON file; see EXPERIMENTS.md) instead of -exp")
		gridExpr = flag.String("grid-expr", "", "run a one-line grid, e.g. 'workload=mergesort,fft;cores=1..32;sched=pdf,ws' (schedulers: "+strings.Join(core.Names(), ", ")+")")
		stats    = flag.Bool("stats", false, "dump the unified telemetry registry (runner/sim/grid/rcache/wpool, Prometheus text format) to stderr on exit")
		traceOut = flag.String("trace-out", "", "write one JSON span per simulation cell (phase-split wall time) to `file` and print the slowest cells to stderr")
		cpuOut   = flag.String("cpuprofile", "", "write a CPU profile to `file`; samples carry (workload, config, sched) pprof labels")
		memOut   = flag.String("memprofile", "", "write a heap profile to `file` on exit")
	)
	cli := rcache.RegisterCLI(flag.CommandLine, true)
	flag.Parse()

	if *list {
		for _, e := range exp.IDs() {
			fmt.Printf("%-15s %s\n", e, exp.Describe(e))
		}
		return
	}

	if err := cli.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}

	userGrid, err := loadUserGrid(*gridFile, *gridExpr, *quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}

	if cli.GC {
		summary, err := cli.RunGC()
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, summary)
		return
	}

	exp.Parallelism = *parallel
	runner.SetBudget(*parallel)

	// The in-memory tier is always on: cells repeated across experiments
	// within this run deduplicate for free (output is byte-identical either
	// way). -cache DIR adds the persistent layer.
	store, err := cli.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	exp.Cache = store

	tel, err := startTelemetry(*stats, *traceOut, *cpuOut, *memOut, store)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}

	if userGrid != nil {
		res, gerr := exp.RunGrid(userGrid, false)
		// Same ordering as the registry path below: drain remote
		// write-backs before stats or exit, print stats even on failure.
		store.Close()
		tel.finish()
		if gerr != nil {
			fmt.Fprintln(os.Stderr, "sweep:", gerr)
			os.Exit(1)
		}
		for _, t := range res.Tables {
			if *csv {
				fmt.Print(t.CSV())
			} else {
				fmt.Println(t)
			}
		}
		return
	}

	ids := exp.IDs()
	if *id != "all" {
		ids = []string{*id}
	}

	// Distinct experiment ids fan out across the same worker budget; the
	// stream yields results in canonical id order as soon as each id and
	// its predecessors finish, so tables print incrementally but always in
	// the order a serial run would produce.
	jobs := make([]runner.Job[*exp.Result], len(ids))
	for i, e := range ids {
		jobs[i] = func() (*exp.Result, error) { return exp.Run(e, *quick) }
	}
	err = runner.Stream(*parallel, jobs, func(i int, res *exp.Result, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %v", ids[i], err)
		}
		for _, t := range res.Tables {
			if *csv {
				fmt.Print(t.CSV())
			} else {
				fmt.Println(t)
			}
		}
		return nil
	})
	// Drain remote write-backs before stats or exit: results computed at
	// the tail of the sweep must reach the shared server, and the
	// rcache_remote_stores_total counter must be final when printed.
	store.Close()
	// Stats print even on failure: a run aborted by a bad cell (or a sick
	// shared cache) is exactly when the operator wants the counters.
	tel.finish()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// loadUserGrid resolves -grid / -grid-expr into a validated grid, or nil
// when neither flag is given. Errors here are usage errors: bad axis
// values name the valid set (workloads, schedulers) instead of panicking
// mid-sweep.
func loadUserGrid(file, expr string, quick bool) (*grid.Grid, error) {
	if file == "" && expr == "" {
		return nil, nil
	}
	if file != "" && expr != "" {
		return nil, fmt.Errorf("-grid and -grid-expr are mutually exclusive")
	}
	expSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "exp" {
			expSet = true
		}
	})
	if expSet {
		return nil, fmt.Errorf("-exp selects a registry experiment; it cannot combine with -grid/-grid-expr")
	}
	if quick {
		return nil, fmt.Errorf("-quick does not apply to grids (their sizes are explicit; shrink the n axis instead)")
	}
	var def *grid.Def
	var err error
	if file != "" {
		data, rerr := os.ReadFile(file)
		if rerr != nil {
			return nil, rerr
		}
		def, err = grid.ParseDef(data)
	} else {
		def, err = grid.ParseExpr(expr)
	}
	if err != nil {
		return nil, err
	}
	return def.Resolve(exp.Seed)
}
