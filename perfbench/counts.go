package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/metrics"
)

// counts are simulated totals of one round. They are functions of the
// workload's inputs alone — host speed, parallelism and tracing cannot move
// them — so every round of a run, and every run of the same seed, must
// report the same values. A later change can then rest a claim on a named
// count.
type counts struct {
	SimRuns      int64 `json:"sim_runs"`     // engine runs (registry delta)
	Instr        int64 `json:"instructions"` // simulated instructions (registry delta)
	Cycles       int64 `json:"cycles"`       // simulated cycles (registry delta)
	Results      int64 `json:"results"`      // result records checked
	Tasks        int64 `json:"tasks"`
	Steals       int64 `json:"steals"`
	StealProbes  int64 `json:"steal_probes"`
	FailedSteals int64 `json:"failed_steals"`
	DispatchCyc  int64 `json:"dispatch_cycles"`
	L1Hits       int64 `json:"l1_hits"`
	L1Misses     int64 `json:"l1_misses"`
	L2Hits       int64 `json:"l2_hits"`
	L2Misses     int64 `json:"l2_misses"`
	L2Writebacks int64 `json:"l2_writebacks"`
	OffchipBytes int64 `json:"offchip_bytes"`
	BusQueueCyc  int64 `json:"bus_queue_cycles"`
}

// add folds one result record into the totals.
func (c *counts) add(r metrics.Run) {
	c.Results++
	c.Tasks += r.Tasks
	c.Steals += r.Steals
	c.StealProbes += r.StealProbes
	c.FailedSteals += r.FailedSteals
	c.DispatchCyc += r.DispatchCyc
	c.L1Hits += r.L1Hits
	c.L1Misses += r.L1Misses
	c.L2Hits += r.L2Hits
	c.L2Misses += r.L2Misses
	c.L2Writebacks += r.L2Writebacks
	c.OffchipBytes += r.OffchipBytes
	c.BusQueueCyc += r.BusQueueCycles
}

// plus returns the field-wise sum of two count sets.
func (c counts) plus(o counts) counts {
	return counts{
		SimRuns: c.SimRuns + o.SimRuns, Instr: c.Instr + o.Instr, Cycles: c.Cycles + o.Cycles,
		Results: c.Results + o.Results, Tasks: c.Tasks + o.Tasks, Steals: c.Steals + o.Steals,
		StealProbes: c.StealProbes + o.StealProbes, FailedSteals: c.FailedSteals + o.FailedSteals,
		DispatchCyc: c.DispatchCyc + o.DispatchCyc, L1Hits: c.L1Hits + o.L1Hits, L1Misses: c.L1Misses + o.L1Misses,
		L2Hits: c.L2Hits + o.L2Hits, L2Misses: c.L2Misses + o.L2Misses, L2Writebacks: c.L2Writebacks + o.L2Writebacks,
		OffchipBytes: c.OffchipBytes + o.OffchipBytes, BusQueueCyc: c.BusQueueCyc + o.BusQueueCyc,
	}
}

// engineDelta sets the engine totals from two registry snapshots.
func (c *counts) engineDelta(before, after map[string]float64) {
	c.SimRuns = int64(after["sim_runs_total"] - before["sim_runs_total"])
	c.Instr = int64(after["sim_instructions_total"] - before["sim_instructions_total"])
	c.Cycles = int64(after["sim_cycles_total"] - before["sim_cycles_total"])
}

// countsVersion names the layout of the persisted count records; bump it
// when counts changes meaning.
const countsVersion = 1

// checkCounts reports drift: every round must match the first, and the first
// must match the record an earlier run of this workload and seed left in the
// build directory (written on first sight).
func checkCounts(build, name string, seed uint64, rounds []roundResult) []string {
	if len(rounds) == 0 {
		return nil
	}
	var drift []string
	want := rounds[0].counts
	for i, r := range rounds[1:] {
		if r.counts != want {
			drift = append(drift, fmt.Sprintf("count drift: round %d %+v, round 0 %+v", i+1, r.counts, want))
		}
	}
	path := filepath.Join(build, "counts", fmt.Sprintf("v%d-%s-seed%d.json", countsVersion, name, seed))
	if b, err := os.ReadFile(path); err == nil {
		var prev counts
		if err := json.Unmarshal(b, &prev); err != nil {
			return append(drift, fmt.Sprintf("count record %s unreadable: %v", path, err))
		}
		if prev != want {
			drift = append(drift, fmt.Sprintf("count drift against an earlier run of seed %d: now %+v, then %+v", seed, want, prev))
		}
		return drift
	}
	if len(drift) == 0 {
		b, _ := json.Marshal(want)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err == nil {
			_ = os.WriteFile(path, b, 0o666) // a missing record only skips the cross-run check next time
		}
	}
	return drift
}
