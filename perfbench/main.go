// Command perfbench is the repository's benchmark: one harness, three
// workloads, one output schema. It measures the simulator stack from outside
// — calling the same public entry points cmd/sweep and cmd/sweepd wire
// together (exp.Run/RunGrid, rcache.Open/AttachRemote/NewServer,
// workloads.NewPool, jobs.New/NewAPI) — and never changes the program.
//
//	bash perfbench/run.sh --workload cold-suite --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30 --trace 1
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	cold-suite     the 13 registry experiments at quick size, every cell
//	               computed into a fresh disk store and instance pool
//	warm-replay    one closed-loop client replaying the 11 grid-backed
//	               experiments from a two-server cached fleet (pass 1) and
//	               then from the disk it filled (pass 2)
//	service-mixed  an in-process sweepd driven by nproc closed-loop clients
//	               submitting a seeded stream of small grid jobs
//
// Each run sets up (timed apart as setup_s), then repeats whole rounds of the
// workload for --seconds and reports medians. Every output is checked: tables
// against internal/exp/testdata goldens, job CSVs against exp.RunGrid
// references computed in set-up, simulated counts against every other round
// and against earlier runs of the same seed. Any mismatch makes the run
// incorrect and the exit status 1.
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 the run splits its time between an untraced and a traced half and
// the last line carries the per-layer metrics instead. The lines before it
// are a human-readable report with provenance, sample counts and quartiles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
)

// workload is one benchmark scenario. setup prepares everything a round
// needs (references, fleets); round runs one fixed unit of work and reports
// what it measured; close releases servers and scratch directories.
type workload interface {
	// setupReps is how many times set-up is repeated for setup_s.
	setupReps() int
	setup(e *env) error
	round(e *env, tr *tracing) (roundResult, error)
	close()

	// For the layer ladder: resolve maps a traced cell span back to its
	// cell, for the scheduler replay sample; defs lists the grid
	// definitions to time.
	resolve(c cellRec) (grid.Cell, bool)
	defs() [][]byte
}

// env is what every workload sees of the run.
type env struct {
	reg     *obs.Registry // process-wide runner, sim and grid counters
	root    string        // repository checkout
	work    string        // scratch directory for this run, removed at exit
	seed    uint64
	nproc   int // host CPUs: the runner budget and the number of clients
	rounds  int // rounds completed so far, for per-round seeding
	scratch int // counter for fresh directory names
}

// dir returns a fresh, empty scratch directory.
func (e *env) dir(tag string) (string, error) {
	e.scratch++
	d := filepath.Join(e.work, fmt.Sprintf("%s-%d", tag, e.scratch))
	if err := os.MkdirAll(d, 0o777); err != nil {
		return "", err
	}
	return d, nil
}

// roundResult is what one measured round reports.
type roundResult struct {
	wall     time.Duration
	lats     []float64     // per-operation latency, ms
	ops      int           // operations attempted
	failures []string      // one entry per failed operation
	peakMB   float64       // resident-set high-water mark during the round
	addedMB  float64       // peakMB less the resident set the round started with
	cpu      time.Duration // process CPU time (user+system) during the round
	counts   counts        // simulated counts, for the determinism check
}

var workloadNames = []string{"cold-suite", "warm-replay", "service-mixed"}

func newWorkload(name string) workload {
	switch name {
	case "cold-suite":
		return &coldSuite{}
	case "warm-replay":
		return &warmReplay{}
	case "service-mixed":
		return &serviceMixed{}
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all (one after another)")
		seed    = flag.Uint64("seed", 1, "workload seed (inputs are generated from it)")
		seconds = flag.Float64("seconds", 30, "seconds of measured rounds")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced half of the run")
		root    = flag.String("root", ".", "repository checkout to measure")
		build   = flag.String("build", ".bench_build/perfbench", "directory for scratch data, traces and count records")
	)
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	if newWorkload(names[0]) == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload (%s, or all), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	failed := false
	for _, n := range names {
		if err := run(n, newWorkload(n), *root, *build, *seed, *seconds, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its report. It returns an error
// for set-up failures and for incorrect output (after printing the result
// line, so the failure is on record).
func run(name string, w workload, root, build string, seed uint64, seconds float64, trace bool) error {
	if _, err := os.Stat(filepath.Join(root, "internal", "exp", "testdata")); err != nil {
		return fmt.Errorf("no repository checkout at %s: %w", root, err)
	}
	work := filepath.Join(build, "runs", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o777); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{reg: obs.NewRegistry(), root: root, work: work, seed: seed, nproc: runtime.NumCPU()}
	runner.RegisterMetrics(e.reg)
	sim.RegisterMetrics(e.reg)
	grid.RegisterMetrics(e.reg)

	// The stack is configured exactly as `sweep -parallel nproc` configures
	// it: one process-wide worker budget shared by every fan-out.
	exp.Parallelism = e.nproc
	runner.SetBudget(e.nproc)

	setupS, err := timeSetup(e, w)
	defer w.close()
	if err != nil {
		return fmt.Errorf("%s set-up: %w", name, err)
	}
	var untraced, traced []roundResult
	var tr *tracing
	if trace {
		// Half the time untraced (the reference for the tracing overhead),
		// half traced; the per-layer numbers come from the traced half only.
		if untraced, err = measure(e, w, seconds/2, nil); err != nil {
			return err
		}
		tr = newTracing(e)
		tr.begin()
		if traced, err = measure(e, w, seconds/2, tr); err != nil {
			return err
		}
		tr.finish()
	} else if untraced, err = measure(e, w, seconds, nil); err != nil {
		return err
	}
	all := append(append([]roundResult(nil), untraced...), traced...)

	attempted, failures := 0, []string(nil)
	for _, r := range all {
		attempted += r.ops
		failures = append(failures, r.failures...)
	}
	failures = append(failures, checkCounts(build, name, seed, all)...)

	var layers map[string]float64
	if trace {
		var lerr error
		layers, lerr = tr.layers(w, untraced, traced)
		if lerr != nil {
			failures = append(failures, lerr.Error())
		}
		if err := tr.write(filepath.Join(build, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
		}
	}

	e2e := endToEnd(untraced, setupS)
	prov := provenance(root, name, seed, seconds, trace, e.nproc, len(untraced), len(traced))
	printReport(name, prov, e2e, untraced, failures, layers, tr)

	res := result{Correct: len(failures) == 0, Attempted: attempted, Failed: len(failures)}
	if attempted == 0 {
		res.Attempted, res.Correct = 1, false
	}
	res.Metrics = map[string]metric{}
	if trace {
		for k, v := range layers {
			res.Metrics[k] = metric{Value: v, Unit: layerUnit(k)}
		}
	} else {
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metric{Value: e2e[m.name].value, Unit: m.unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, len(failures), attempted)
	}
	return nil
}

// setupTimes is set-up's CPU time and wall time, one sample per repeat.
type setupTimes struct{ cpu, wall sample }

// timeSetup runs the workload's set-up setupReps times and returns the
// median CPU and wall seconds; the last set-up stays in place.
func timeSetup(e *env, w workload) (setupTimes, error) {
	var cpus, walls []float64
	runtime.GC()
	for i := 0; i < w.setupReps(); i++ {
		if i > 0 {
			w.close()
		}
		t0, cpu0 := time.Now(), cpuTime()
		if err := w.setup(e); err != nil {
			return setupTimes{}, err
		}
		cpus = append(cpus, (cpuTime() - cpu0).Seconds())
		walls = append(walls, time.Since(t0).Seconds())
	}
	return setupTimes{summarize(cpus), summarize(walls)}, nil
}

// measure repeats whole rounds until the next one would overrun budget
// seconds (at least one round runs). Each round starts as a fresh process
// would — without the store and pool set-up or the round before installed,
// garbage collected, freed memory returned to the OS — and its resident-set
// high-water mark is recorded. It takes two collections: the first moves
// what the round before left in sync.Pools to their victim caches, where it
// stays live (about 90 MB after a cold-suite round), and the second
// frees it. Left live, it would raise the next round's heap goal, so that
// round would collect a handful of times instead of some twenty, and its
// memory and CPU time would drift from the first round's by up to half.
func measure(e *env, w workload, budget float64, tr *tracing) ([]roundResult, error) {
	var out []roundResult
	start := time.Now()
	for {
		exp.Cache, exp.InstancePool = nil, nil
		runtime.GC()
		debug.FreeOSMemory()
		resetPeakRSS()
		startMB := statusMB("VmRSS:")
		cpu0 := cpuTime()
		r, err := w.round(e, tr)
		r.cpu = cpuTime() - cpu0
		if err != nil {
			return nil, err
		}
		r.peakMB = statusMB("VmHWM:")
		r.addedMB = r.peakMB - startMB
		e.rounds++
		out = append(out, r)
		elapsed := time.Since(start).Seconds()
		if elapsed+r.wall.Seconds() > budget {
			return out, nil
		}
	}
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics are the end-to-end metrics every workload reports, in
// BENCHMARK.json order. Host time is the process's CPU time (user plus
// system, all threads): on a shared host, neighbouring machines take the
// CPUs away for seconds to minutes at a time (hypervisor steal), which
// stretches every wall-clock figure of a run by up to half — and by how
// much depends on the minute, not the program. The kernel does not charge
// stolen time to the process, so its CPU time moves only with the work the
// program does and with how the neighbours crowd the caches. The report
// prints wall time (round wall, per-operation latency, set-up wall) beside
// it.
//
// round_rss_mb is the resident memory a round adds at its peak: its
// resident-set high-water mark less the resident set it started with. What
// the runtime keeps resident after set-up and a full collection differs
// from process to process by several MB, a third of a warm-replay round's
// whole peak. The report prints the whole peak, peak_rss_mb, beside it.
var e2eMetrics = []struct{ name, unit string }{
	{"cpu_s", "s"},
	{"round_rss_mb", "MB"},
	{"setup_s", "s"},
}

// endToEnd summarizes the untraced rounds — CPU and wall time per round,
// operation latencies, per-round memory peaks — and set-up.
func endToEnd(rounds []roundResult, setup setupTimes) map[string]sample {
	var walls, cpus, lats, peaks, added []float64
	for _, r := range rounds {
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		lats = append(lats, r.lats...)
		peaks = append(peaks, r.peakMB)
		added = append(added, r.addedMB)
	}
	l := summarize(lats)
	return map[string]sample{
		"cpu_s":        summarize(cpus),
		"wall_s":       summarize(walls),
		"lat_ms":       l,
		"lat_ms_p10":   l.at(l.p10),
		"peak_rss_mb":  summarize(peaks),
		"round_rss_mb": summarize(added),
		"setup_s":      setup.cpu,
		"setup_wall_s": setup.wall,
	}
}

// provenance records what was measured, where.
func provenance(root, name string, seed uint64, seconds float64, trace bool, nproc, untraced, traced int) map[string]any {
	p := map[string]any{
		"workload":       name,
		"seed":           seed,
		"seconds":        seconds,
		"trace":          trace,
		"nproc":          nproc,
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"cpu":            cpuModel(),
		"go":             runtime.Version(),
		"commit":         "unknown",
		"pgo":            "off",
		"tree_sha256":    treeDigest(root),
		"rounds":         untraced,
		"traced_rounds":  traced,
		"host_time":      "cpu_s and setup_s are process CPU seconds",
		"model_accuracy": "unvalidated against real hardware; no error figure",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value
			case "-pgo":
				p["pgo"] = "on: " + s.Value
			}
		}
	}
	return p
}

// printReport writes the human-readable report: provenance, the end-to-end
// metrics under the workload's own names with quartiles and sample counts,
// failures, and (traced runs) the per-layer metrics.
func printReport(name string, prov map[string]any, e2e map[string]sample, rounds []roundResult, failures []string, layers map[string]float64, tr *tracing) {
	b, _ := json.Marshal(prov)
	fmt.Printf("perfbench %s\nprovenance %s\n", name, b)
	fmt.Printf("%-18s %-8s %12s %12s %12s %12s %12s %7s\n", "metric", "unit", "value", "q1", "q3", "p10", "p95", "n")
	row := func(metric, unit string, s sample) {
		fmt.Printf("%-18s %-8s %12.6g %12.6g %12.6g %12.6g %12.6g %7d\n", metric, unit, s.value, s.q1, s.q3, s.p10, s.p95, s.n)
	}
	for _, m := range append(e2eMetrics, []struct{ name, unit string }{{"wall_s", "s"}, {"lat_ms", "ms"}, {"lat_ms_p10", "ms"}, {"setup_wall_s", "s"}, {"peak_rss_mb", "MB"}}...) {
		row(m.name, m.unit, e2e[m.name])
	}
	for _, n := range named(name, rounds) {
		row(n.name, n.unit, n.s)
	}
	ops := 0
	for _, r := range rounds {
		ops += r.ops
	}
	fmt.Printf("%-18s %-8s %12.6g %12s %12s %12s %12s %7d\n", "failed_frac", "frac", float64(len(failures))/float64(max(ops, 1)), "", "", "", "", ops)
	for i, f := range failures {
		if i == 20 {
			fmt.Printf("FAIL ... %d more\n", len(failures)-i)
			break
		}
		fmt.Println("FAIL", f)
	}
	if layers != nil {
		keys := make([]string, 0, len(layers))
		for k := range layers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("layer %-34s %-8s %.6g\n", k, layerUnit(k), layers[k])
		}
	}
	if tr != nil {
		self := tr.selfTimes()
		names := make([]string, 0, len(self))
		for k := range self {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
		for _, k := range names {
			fmt.Printf("self  %-34s %-8s %.6g\n", k, "s", self[k].Seconds())
		}
	}
}

// namedMetric is one of the workload-specific end-to-end metrics the report
// prints next to the common ones.
type namedMetric struct {
	name, unit string
	s          sample
}

// named derives the workload-specific end-to-end metrics under the names
// the workloads' users know them by: simulator throughput for the computing
// workloads, replay and job latency for the serving ones.
func named(name string, rounds []roundResult) []namedMetric {
	var lats, rate []float64
	for _, r := range rounds {
		lats = append(lats, r.lats...)
		rate = append(rate, float64(r.counts.Instr)/1e6/r.wall.Seconds())
	}
	s := summarize(lats)
	switch name {
	case "cold-suite":
		return []namedMetric{{"sim_minstr_per_s", "Minstr/s", summarize(rate)}}
	case "warm-replay":
		return []namedMetric{{"replay_ms_p50", "ms", s}, {"replay_ms_p95", "ms", s.at(s.p95)}}
	default:
		return []namedMetric{{"sim_minstr_per_s", "Minstr/s", summarize(rate)}, {"job_ms_p50", "ms", s}, {"job_ms_p95", "ms", s.at(s.p95)}}
	}
}
