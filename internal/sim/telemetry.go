package sim

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Process-wide engine telemetry, ticked once per completed Run. The engine's
// hot loop keeps its counts in plain engine fields, so instrumentation costs
// a few atomic adds per simulation, not per cycle. sim is a
// determinism-policed package: these are plain counters, no clocks, and
// nothing here feeds back into simulation state. None of them is part of
// metrics.Run, whose reflected shape is hashed into every cache key.
var (
	simRuns           atomic.Int64
	simCycles         atomic.Int64
	simInstrs         atomic.Int64
	simEvents         atomic.Int64
	simRunAheadHits   atomic.Int64
	simRollbacks      atomic.Int64
	simRolledBackHits atomic.Int64
)

// flushTelemetry adds a finished run's totals to the process counters.
func flushTelemetry(e *Engine) {
	simRuns.Add(1)
	simCycles.Add(e.now)
	simInstrs.Add(e.instructions)
	simEvents.Add(e.events)
	simRunAheadHits.Add(e.runAheadHits)
	simRollbacks.Add(e.rollbacks)
	simRolledBackHits.Add(e.rolledBackHits)
}

// RegisterMetrics exposes engine execution totals on a registry as the
// sim_* family.
func RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("sim_runs_total", "", "complete engine runs executed",
		func() int64 { return simRuns.Load() })
	r.CounterFunc("sim_cycles_total", "", "simulated cycles across all runs",
		func() int64 { return simCycles.Load() })
	r.CounterFunc("sim_instructions_total", "", "dynamic instructions executed across all runs",
		func() int64 { return simInstrs.Load() })
	r.CounterFunc("sim_events_total", "", "engine event pops across all runs",
		func() int64 { return simEvents.Load() })
	r.CounterFunc("sim_runahead_hits_total", "", "private L1 hits replayed ahead of global event order",
		func() int64 { return simRunAheadHits.Load() })
	r.CounterFunc("sim_rollbacks_total", "", "run-ahead rollbacks (cores rewound by a conflicting access)",
		func() int64 { return simRollbacks.Load() })
	r.CounterFunc("sim_rolled_back_hits_total", "", "run-ahead hits undone by rollbacks",
		func() int64 { return simRolledBackHits.Load() })
}
