package runner

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Process-wide execution telemetry, shared by every Stream/Map call exactly
// as the worker budget is. The counters are maintained inline in Stream's
// one execution path at a cost of a few uncontended atomic adds per job —
// noise against cells that run for milliseconds to seconds — and exposed
// through RegisterMetrics as the runner_* family of the unified registry
// (`sweep -stats`, /metrics).
var (
	// queued is the number of jobs accepted by Stream/Map but not yet
	// claimed (to run, or to skip after a yield error).
	queued atomic.Int64
	// inflight is the number of jobs executing right now — the "cells in
	// flight" gauge.
	inflight atomic.Int64
	// jobsDone counts jobs executed to completion since process start.
	jobsDone atomic.Int64
	// lends counts budget tokens returned to the pool across a blocking
	// wait via Lend — each is a core-idle span converted into
	// schedulable capacity.
	lends atomic.Int64
)

// Telemetry is a snapshot of the runner's execution state.
type Telemetry struct {
	BudgetCap   int64 // SetBudget's cap (-parallel)
	TokensInUse int64 // helper tokens currently held (the driver's slot is not a token)
	QueueDepth  int64 // jobs submitted but not yet claimed
	InFlight    int64 // jobs executing right now
	JobsDone    int64 // jobs completed since process start
	Lends       int64 // tokens lent back to the pool across blocking waits
}

// Snapshot returns the current telemetry. Gauges are instantaneous and may
// be mid-transition; they are observability, not synchronization.
func Snapshot() Telemetry {
	return Telemetry{
		BudgetCap:   budget.cap.Load(),
		TokensInUse: budget.inuse.Load(),
		QueueDepth:  queued.Load(),
		InFlight:    inflight.Load(),
		JobsDone:    jobsDone.Load(),
		Lends:       lends.Load(),
	}
}

// RegisterMetrics exposes the runner's budget and execution state on a
// registry.
func RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("runner_budget_cap", "", "process-wide worker budget (cmd flag -parallel)",
		func() float64 { return float64(budget.cap.Load()) })
	r.GaugeFunc("runner_tokens_in_use", "", "worker-budget tokens currently held",
		func() float64 { return float64(budget.inuse.Load()) })
	r.GaugeFunc("runner_queue_depth", "", "jobs submitted to Stream/Map but not yet claimed by a worker",
		func() float64 { return float64(queued.Load()) })
	r.GaugeFunc("runner_cells_in_flight", "", "jobs executing right now",
		func() float64 { return float64(inflight.Load()) })
	r.CounterFunc("runner_jobs_total", "", "jobs executed to completion",
		func() int64 { return jobsDone.Load() })
	r.CounterFunc("runner_token_lends_total", "", "budget tokens lent back to the pool across blocking waits",
		func() int64 { return lends.Load() })
}

// claimJob moves one job from queued to in-flight.
func claimJob() {
	queued.Add(-1)
	inflight.Add(1)
}

// finishJob retires one executed job.
func finishJob() {
	inflight.Add(-1)
	jobsDone.Add(1)
}

// skipJob drains one claimed-but-cancelled job (a worker filling its slot
// after a yield error).
func skipJob() {
	queued.Add(-1)
}
