package main

import (
	"fmt"
	"strings"

	"repro/internal/runner"
)

// layerMetrics are the per-layer metrics a traced run reports, each named by
// the module it measures, in BENCHMARK.json order. A layer a workload does
// not exercise reports 0. Counts of simulated state (sim.runs/minstr/mcycles,
// the core.* and cache.* counts) are deterministic for a workload and seed;
// everything in ns/us/ms/s is host time.
var layerMetrics = []struct{ name, unit string }{
	{"sim.runs", "count"},
	{"sim.minstr", "Minstr"},
	{"sim.mcycles", "Mcycles"},
	{"sim.simulate_s", "s"},
	{"sim.ns_per_instr", "ns"},
	{"sim.ns_per_task", "ns"},
	{"sim.engine_self_ns_per_task", "ns"},
	{"sim.minstr_per_s", "Minstr/s"},
	{"core.tasks", "count"},
	{"core.steals", "count"},
	{"core.steal_probes", "count"},
	{"core.failed_steals", "count"},
	{"core.dispatch_mcycles", "Mcycles"},
	{"core.pushes", "count"},
	{"core.pops", "count"},
	{"core.push_ns", "ns"},
	{"core.pop_ns", "ns"},
	{"cache.l1_hits", "count"},
	{"cache.l1_misses", "count"},
	{"cache.l2_hits", "count"},
	{"cache.l2_misses", "count"},
	{"cache.l2_writebacks", "count"},
	{"cache.offchip_mb", "MB"},
	{"cache.bus_queue_mcycles", "Mcycles"},
	{"cache.access_ns.l1hit", "ns"},
	{"cache.access_ns.l2hit", "ns"},
	{"cache.access_ns.l2miss", "ns"},
	{"cache.access_ns.coherence", "ns"},
	{"cache.model_s", "s"},
	{"cache.model_residual_frac", "frac"},
	{"workloads.builds", "count"},
	{"workloads.build_ms", "ms"},
	{"workloads.reset_ms", "ms"},
	{"workloads.acquire_us_p50", "us"},
	{"workloads.sample_build_ms", "ms"},
	{"workloads.sample_reset_ms", "ms"},
	{"wpool.hits", "count"},
	{"wpool.misses", "count"},
	{"wpool.evictions", "count"},
	{"rcache.lookups", "count"},
	{"rcache.hit_ratio", "frac"},
	{"rcache.mem_hits", "count"},
	{"rcache.disk_hits", "count"},
	{"rcache.remote_hits", "count"},
	{"rcache.dedup", "count"},
	{"rcache.misses", "count"},
	{"rcache.stores", "count"},
	{"rcache.remote_errs", "count"},
	{"rcache.lookup_us_p50", "us"},
	{"rcache.store_us_p50", "us"},
	{"exp.dedup_wait_s", "s"},
	{"cached.requests", "count"},
	{"cached.get_us_p50", "us"},
	{"cached.put_us_p50", "us"},
	{"runner.jobs", "count"},
	{"runner.token_lends", "count"},
	{"runner.busy_frac", "frac"},
	{"exp.slowest_cell_s", "s"},
	{"grid.defs_resolved", "count"},
	{"grid.cells_enumerated", "count"},
	{"grid.resolve_us_p50", "us"},
	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.run_ms_p50", "ms"},
	{"jobs.submit_us_p50", "us"},
	{"jobs.result_us_p50", "us"},
	{"jobs.rejected", "count"},
	{"jobs.failed", "count"},
	{"report.render_ms", "ms"},
	{"obs.trace_overhead_frac", "frac"},
	{"obs.phase_gap_frac", "frac"},
}

// layerUnit returns a per-layer metric's unit.
func layerUnit(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return "count"
}

// layers runs the ladder and derives every per-layer metric from the traced
// half. It reports an error when a check fails: a cell span whose phases
// overrun its total, a replay that differs under the timing wrapper, or an
// AccessLine class that missed its class.
func (t *tracing) layers(w workload, untraced, traced []roundResult) (map[string]float64, error) {
	m := map[string]float64{}
	var failures []string
	delta := func(name string) float64 { return t.regAfter[name] - t.regBefore[name] }

	// Program cell spans: phase partition, computed results.
	var sum counts
	var simNs, gapNs, totalNs, slowest, resetNs, dedupNs int64
	var acquireUs, lookupUs, storeUs []float64
	seen := map[string]bool{}
	for _, c := range t.cells {
		r := c.rec
		ph := r.PhaseNs()
		var phases int64
		for _, v := range ph {
			phases += v
		}
		if phases > r.TotalNs {
			failures = append(failures, fmt.Sprintf("cell span %s/%s/%s: phases sum to %dns, over its %dns total", r.Workload, r.Config, r.Sched, phases, r.TotalNs))
		}
		gapNs += r.TotalNs - phases
		totalNs += r.TotalNs
		slowest = max(slowest, r.TotalNs)
		simNs += ph[4]
		resetNs += ph[3]
		if r.Outcome == "dedup" {
			dedupNs += ph[0]
		} else {
			lookupUs = append(lookupUs, float64(ph[0])/1e3)
		}
		if ph[5] > 0 {
			storeUs = append(storeUs, float64(ph[5])/1e3)
		}
		if r.Outcome == "computed" || r.Outcome == "uncached" {
			acquireUs = append(acquireUs, float64(ph[1]+ph[2]+ph[3])/1e3)
			key := fmt.Sprintf("%p/%s", c.store, r.Key)
			if !seen[key] {
				seen[key] = true
				run, err := stored(c.store, r.Key)
				if err != nil {
					failures = append(failures, err.Error())
				}
				sum.add(run)
			}
		}
	}
	instr := delta("sim_instructions_total")
	m["sim.runs"] = delta("sim_runs_total")
	m["sim.minstr"] = instr / 1e6
	m["sim.mcycles"] = delta("sim_cycles_total") / 1e6
	m["sim.simulate_s"] = float64(simNs) / 1e9
	m["sim.ns_per_instr"] = ratio(float64(simNs), instr)
	m["sim.ns_per_task"] = ratio(float64(simNs), float64(sum.Tasks))
	var rates []float64
	for _, r := range untraced {
		rates = append(rates, float64(r.counts.Instr)/1e6/r.wall.Seconds())
	}
	m["sim.minstr_per_s"] = summarize(rates).value

	m["core.tasks"] = float64(sum.Tasks)
	m["core.steals"] = float64(sum.Steals)
	m["core.steal_probes"] = float64(sum.StealProbes)
	m["core.failed_steals"] = float64(sum.FailedSteals)
	m["core.dispatch_mcycles"] = float64(sum.DispatchCyc) / 1e6

	m["cache.l1_hits"] = float64(sum.L1Hits)
	m["cache.l1_misses"] = float64(sum.L1Misses)
	m["cache.l2_hits"] = float64(sum.L2Hits)
	m["cache.l2_misses"] = float64(sum.L2Misses)
	m["cache.l2_writebacks"] = float64(sum.L2Writebacks)
	m["cache.offchip_mb"] = float64(sum.OffchipBytes) / 1e6
	m["cache.bus_queue_mcycles"] = float64(sum.BusQueueCyc) / 1e6

	// Ladder: AccessLine classes, then the cost model they give.
	classes, err := accessClasses()
	if err != nil {
		failures = append(failures, err.Error())
	}
	for k, v := range classes {
		m["cache.access_ns."+k] = v
	}
	model := (float64(sum.L1Hits)*classes["l1hit"] + float64(sum.L2Hits)*classes["l2hit"] + float64(sum.L2Misses)*classes["l2miss"]) / 1e9
	m["cache.model_s"] = model
	if simNs > 0 {
		m["cache.model_residual_frac"] = 1 - model/(float64(simNs)/1e9)
	}

	// Ladder: the scheduler timing wrapper on the workload's own cells,
	// with each sample's build and reset timed too.
	samples, err := chooseSamples(t.cells, w.resolve)
	if err != nil {
		failures = append(failures, err.Error())
	}
	st, fails := replay(samples)
	failures = append(failures, fails...)
	// A timed call carries about one clock read of the pair clockNs
	// measures; take it out.
	clk := clockNs() / 2
	m["core.pushes"] = float64(st.pushes)
	m["core.pops"] = float64(st.pops)
	m["core.push_ns"] = max(ratio(float64(st.pushNs), float64(st.pushes))-clk, 0)
	m["core.pop_ns"] = max(ratio(float64(st.popNs), float64(st.pops))-clk, 0)
	if st.tasks > 0 {
		m["sim.engine_self_ns_per_task"] = float64(st.simNs-st.pushNs-st.popNs-st.idleNs) / float64(st.tasks)
	}
	m["workloads.sample_build_ms"] = ratio(float64(st.buildNs)/1e6, float64(st.cells))
	m["workloads.sample_reset_ms"] = ratio(float64(st.resetNs)/1e6, float64(st.cells))
	if defs := w.defs(); len(defs) > 0 {
		us, err := timeResolve(defs)
		if err != nil {
			failures = append(failures, err.Error())
		}
		m["grid.resolve_us_p50"] = percentile(us, 0.5)
	}

	// Instance pool and builds.
	m["workloads.builds"] = float64(t.buildsAfter[0] - t.buildsBefore[0])
	m["workloads.build_ms"] = float64(t.buildsAfter[1]-t.buildsBefore[1]) / 1e6
	m["workloads.reset_ms"] = float64(resetNs) / 1e6
	m["workloads.acquire_us_p50"] = percentile(acquireUs, 0.5)
	for _, p := range t.pools {
		m["wpool.hits"] += p["wpool_hits_total"]
		m["wpool.misses"] += p["wpool_misses_total"]
		m["wpool.evictions"] += p["wpool_evictions_total"]
	}

	// Result cache.
	for _, s := range t.stores {
		m["rcache.mem_hits"] += s[`rcache_hits_total{tier="mem"}`]
		m["rcache.disk_hits"] += s[`rcache_hits_total{tier="disk"}`]
		m["rcache.remote_hits"] += s[`rcache_hits_total{tier="remote"}`]
		m["rcache.dedup"] += s[`rcache_hits_total{tier="dedup"}`]
		m["rcache.misses"] += s["rcache_misses_total"]
		m["rcache.stores"] += s["rcache_stores_total"]
		m["rcache.remote_errs"] += s["rcache_remote_errors_total"]
	}
	hits := m["rcache.mem_hits"] + m["rcache.disk_hits"] + m["rcache.remote_hits"] + m["rcache.dedup"]
	m["rcache.lookups"] = hits + m["rcache.misses"]
	m["rcache.hit_ratio"] = ratio(hits, m["rcache.lookups"])
	m["rcache.lookup_us_p50"] = percentile(lookupUs, 0.5)
	m["rcache.store_us_p50"] = percentile(storeUs, 0.5)
	m["exp.dedup_wait_s"] = float64(dedupNs) / 1e9

	m["cached.requests"] = float64(len(t.series["cached.get_us"]) + len(t.series["cached.put_us"]))
	m["cached.get_us_p50"] = percentile(t.series["cached.get_us"], 0.5)
	m["cached.put_us_p50"] = percentile(t.series["cached.put_us"], 0.5)

	// Runner and experiment layer.
	var wall float64
	for _, r := range traced {
		wall += r.wall.Seconds()
	}
	m["runner.jobs"] = delta("runner_jobs_total")
	m["runner.token_lends"] = delta("runner_token_lends_total")
	m["runner.busy_frac"] = ratio(float64(totalNs)/1e9, wall*float64(budget()))
	m["exp.slowest_cell_s"] = float64(slowest) / 1e9

	m["grid.defs_resolved"] = delta("grid_defs_resolved_total")
	m["grid.cells_enumerated"] = delta("grid_cells_enumerated_total")

	for _, s := range []string{"jobs.queue_wait_ms", "jobs.run_ms", "jobs.submit_us", "jobs.result_us"} {
		m[s+"_p50"] = percentile(t.series[s], 0.5)
	}
	for _, g := range t.mgrs {
		for k, v := range g {
			if strings.HasPrefix(k, "sweepd_jobs_rejected_total") {
				m["jobs.rejected"] += v
			}
		}
		m["jobs.failed"] += g["sweepd_jobs_failed_total"]
	}

	m["report.render_ms"] = percentile(t.series["report.render_ms"], 0.5)

	var uw, tw []float64
	for _, r := range untraced {
		uw = append(uw, r.wall.Seconds())
	}
	for _, r := range traced {
		tw = append(tw, r.wall.Seconds())
	}
	if u := summarize(uw).value; u > 0 {
		m["obs.trace_overhead_frac"] = summarize(tw).value/u - 1
	}
	m["obs.phase_gap_frac"] = ratio(float64(gapNs), float64(totalNs))

	out := map[string]float64{}
	for _, lm := range layerMetrics {
		out[lm.name] = m[lm.name]
	}
	if len(failures) > 0 {
		return out, fmt.Errorf("%s", strings.Join(failures, "; "))
	}
	return out, nil
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// budget is the runner's worker budget.
func budget() int64 { return runner.Snapshot().BudgetCap }
