package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/rcache"
	"repro/internal/runner"
	"repro/internal/sim"
)

// summaryTop is how many slowest cells the -trace-out stderr summary lists.
const summaryTop = 10

// telemetry owns sweep's observability side-band: the unified metric
// registry (-stats), the per-cell tracer (-trace-out), and the pprof outputs
// (-cpuprofile, -memprofile). Everything here writes to stderr or to files —
// never stdout — so tables stay byte-identical with any combination of these
// flags on or off.
type telemetry struct {
	reg     *obs.Registry // nil unless -stats
	tracer  *obs.Tracer
	traceF  *os.File
	cpuF    *os.File
	memPath string
}

// startTelemetry opens every requested output up front — a bad path fails
// the run before any simulation — and wires the tracer into the experiment
// layer. Call after the cache store is attached so its counters register.
func startTelemetry(stats bool, tracePath, cpuPath, memPath string, store *rcache.Store) (*telemetry, error) {
	t := &telemetry{memPath: memPath}
	if stats {
		t.reg = obs.NewRegistry()
		runner.RegisterMetrics(t.reg)
		sim.RegisterMetrics(t.reg)
		grid.RegisterMetrics(t.reg)
		store.RegisterMetrics(t.reg)
		exp.InstancePool.RegisterMetrics(t.reg)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, fmt.Errorf("-trace-out: %w", err)
		}
		t.traceF = f
		t.tracer = obs.NewTracer()
		exp.Tracer = t.tracer
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		t.cpuF = f
	}
	return t, nil
}

// finish flushes every enabled output: stops the CPU profile, lands the
// JSONL trace and its slowest-cells summary, writes the heap profile, and
// dumps the registry. Call exactly once, after store.Close so remote
// write-back counters are final.
func (t *telemetry) finish() {
	if t.cpuF != nil {
		pprof.StopCPUProfile()
		t.cpuF.Close()
	}
	if t.tracer != nil {
		if err := t.tracer.WriteJSONL(t.traceF); err != nil {
			fmt.Fprintln(os.Stderr, "sweep: trace:", err)
		}
		t.traceF.Close()
		if s := t.tracer.Summary(summaryTop); s != "" {
			fmt.Fprint(os.Stderr, s)
		}
	}
	if t.memPath != "" {
		if f, err := os.Create(t.memPath); err != nil {
			fmt.Fprintln(os.Stderr, "sweep: -memprofile:", err)
		} else {
			runtime.GC() // materialize final live-set accounting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sweep: -memprofile:", err)
			}
			f.Close()
		}
	}
	if t.reg != nil {
		t.reg.WriteText(os.Stderr)
	}
}
