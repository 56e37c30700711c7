// Command cmpsim runs one workload under one scheduler on one simulated CMP
// configuration and prints the measured metrics — the smallest unit of the
// reproduction.
//
// Usage:
//
//	cmpsim -workload mergesort -cores 16 -sched pdf [-n 524288] [-grain 2048]
//	cmpsim -workload spmv -cache ~/.repro-cache     # reuse sweep's results
//
// cmpsim shares the result cache — and its flag wiring (-cache,
// -cache-remote, -cache-readonly) — and the unified -stats telemetry dump
// with cmd/sweep: a cell cmpsim runs is the same content-addressed cell a
// full-size sweep runs, so either tool can serve the other's warm entries,
// locally or through a shared cached server (cmd/cached). (Quick-mode sweep
// entries are a separate cache identity — quick is part of the cell key —
// so cmpsim, which always keys full-size, never aliases them.) -attr and
// -timeline need a live engine (their outputs are not part of the cached
// record), so those runs bypass the cache.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rcache"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "mergesort", "one of: "+strings.Join(workloads.Names(), ", "))
		n        = flag.Int("n", 1<<19, "problem size (elements or matrix dimension)")
		grain    = flag.Int("grain", 2048, "task granularity in elements")
		iters    = flag.Int("iters", 0, "iterations for iterative workloads (0 = default)")
		cores    = flag.Int("cores", 8, "number of cores (1-64); default CMP config is derived")
		sched    = flag.String("sched", "pdf", "scheduler: "+strings.Join(core.Names(), ", "))
		seed     = flag.Uint64("seed", exp.Seed, "seed for workload data and WS victim-selection RNG")
		shape    = flag.Bool("shape", false, "print DAG shape statistics and exit")
		attr     = flag.Bool("attr", false, "attribute off-chip traffic to the workload's arrays (bypasses -cache)")
		timeline = flag.Bool("timeline", false, "dump the schedule as CSV (node,label,core,start,end) to stdout (bypasses -cache)")
		stats    = flag.Bool("stats", false, "dump the unified telemetry registry (sim/rcache/wpool, Prometheus text format) to stderr on exit")
	)
	cli := rcache.RegisterCLI(flag.CommandLine, false)
	flag.Parse()

	if err := cli.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "cmpsim:", err)
		os.Exit(2)
	}

	spec := workloads.Spec{Name: *workload, N: *n, Grain: *grain, Iters: *iters, Seed: *seed}

	// Validate user-named lookups up front: a typo'd scheduler, workload,
	// or parameter is a usage error naming the valid set, not a panic
	// stack. The same validators gate sweep's grid axes.
	if _, err := core.Lookup(*sched, core.Overheads{}, 0); err != nil {
		fmt.Fprintln(os.Stderr, "cmpsim:", err)
		os.Exit(2)
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "cmpsim:", err)
		os.Exit(2)
	}
	if *cores < 1 || *cores > 64 {
		fmt.Fprintf(os.Stderr, "cmpsim: -cores must be in [1, 64], got %d\n", *cores)
		os.Exit(2)
	}

	cfg := machine.Default(*cores)

	if *shape {
		in := workloads.Build(spec)
		fmt.Printf("%v: %v, footprint %.2f MiB\n", spec, dag.Analyze(in.Graph),
			float64(in.Footprint())/(1<<20))
		return
	}

	fmt.Printf("config:   %v\n", cfg)
	fmt.Printf("workload: %v\n", spec)

	if *attr || *timeline {
		if cli.Dir != "" || cli.Remote != "" {
			fmt.Fprintln(os.Stderr, "cmpsim: cache flags ignored — -attr/-timeline runs are uncached (their outputs are not part of the cached record)")
		}
		runVerbose(cfg, spec, *sched, *seed, *attr, *timeline)
		return
	}

	store, err := cli.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmpsim:", err)
		os.Exit(1)
	}
	// The unified registry: the same families sweep -stats dumps, minus the
	// layers a one-cell run never touches (runner, grid).
	var reg *obs.Registry
	if *stats {
		reg = obs.NewRegistry()
		sim.RegisterMetrics(reg)
		store.RegisterMetrics(reg)
		exp.InstancePool.RegisterMetrics(reg)
	}
	key := rcache.KeyOf(cfg, spec, *sched, *seed, false)
	r, err := store.Do(key, func() (metrics.Run, error) {
		return exp.RunOneSeeded(cfg, spec, *sched, *seed, nil)
	})
	// Drain the remote write-back (if any) before stats or exit, as sweep
	// does: a one-cell run that computed must still reach the shared server.
	store.Close()
	// Stats print even on failure, mirroring sweep: a failed cell is
	// exactly when the operator wants the counters.
	if reg != nil {
		reg.WriteText(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "FAILED:", err)
		os.Exit(1)
	}
	printResult(r)
}

func printResult(r metrics.Run) {
	fmt.Printf("result:   %v\n", r)
	fmt.Printf("          L1 MPKI %.3f | L2 MPKI %.3f | bus util %.2f | utilization %.2f | premature hw %d\n",
		r.L1MPKI(), r.L2MPKI(), r.BusUtilization, r.Utilization(), r.MaxPremature)
}

// runVerbose is the uncacheable path: a fresh engine with attribution
// and/or timeline capture enabled, printing their reports after the result.
func runVerbose(cfg machine.Config, spec workloads.Spec, sched string, seed uint64, attr, timeline bool) {
	in := workloads.Build(spec)
	in.BeginRun()
	// The parsed -seed drives both the workload data (via spec) and the
	// scheduler's RNG; passing exp.Seed here would pin WS victim selection
	// to the default seed no matter what the user asked for.
	s := core.ByName(sched, exp.OverheadsOf(cfg), seed)
	e := sim.New(cfg, in.Graph, s, nil)
	var attribution *cache.Attribution
	if attr {
		attribution = e.Hierarchy().EnableAttribution(in.Space)
	}
	e.CaptureTimeline = timeline
	r := e.Run()
	r.Workload = spec.Name
	if err := in.Verify(); err != nil {
		fmt.Fprintln(os.Stderr, "FAILED:", err)
		os.Exit(1)
	}
	printResult(r)
	if attribution != nil {
		fmt.Println("off-chip traffic by array:")
		for _, e := range attribution.Report() {
			fmt.Printf("          %-12s %8.2f MiB\n", e.Name, float64(e.MissBytes)/(1<<20))
		}
	}
	if timeline {
		fmt.Println("node,label,core,start,end")
		for _, sp := range e.Timeline {
			fmt.Printf("%d,%s,%d,%d,%d\n", sp.Node, in.Graph.Node(sp.Node).Label, sp.Core, sp.Start, sp.End)
		}
	}
}
