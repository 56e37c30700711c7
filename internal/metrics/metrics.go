// Package metrics defines the result record of one simulated execution and
// the derived quantities the paper reports: L2 misses per 1000 instructions
// (off-chip traffic) and speedup over the sequential run.
package metrics

import "fmt"

// Run captures everything measured during one simulation.
type Run struct {
	Workload  string
	Scheduler string
	Cores     int
	Config    string

	// Time and work.
	Cycles       int64 // makespan: cycle of the last task completion
	Instructions int64 // dynamic instructions executed (compute + memory)
	Tasks        int64 // DAG nodes executed
	BusyCycles   int64 // sum over cores of cycles spent executing actions
	IdleCycles   int64 // sum over cores of cycles with no task available
	DispatchCyc  int64 // sum of scheduler overhead cycles charged

	// Memory system (aggregated over private L1s; single shared L2).
	L1Hits, L1Misses int64
	L2Hits, L2Misses int64
	L2Writebacks     int64
	OffchipTransfers int64
	OffchipBytes     int64
	BusQueueCycles   int64
	BusUtilization   float64

	// Scheduler events.
	Steals       int64
	StealProbes  int64
	FailedSteals int64

	// Depth-first fidelity: high-water mark of tasks completed ahead of the
	// sequential frontier (premature nodes, Blelloch-Gibbons SPAA'04).
	MaxPremature int

	// Working set, when profiling was enabled (0 otherwise).
	WSDistinctBytes int64
	WSWindowHWBytes int64
}

// L2MPKI returns L2 misses per 1000 instructions — the paper's Figure 1
// left-panel metric and its proxy for off-chip traffic.
func (r Run) L2MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.L2Misses) * 1000 / float64(r.Instructions)
}

// L1MPKI returns L1 misses per 1000 instructions.
func (r Run) L1MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.L1Misses) * 1000 / float64(r.Instructions)
}

// Utilization returns the fraction of core-cycles spent executing.
func (r Run) Utilization() float64 {
	total := r.Cycles * int64(r.Cores)
	if total == 0 {
		return 0
	}
	return float64(r.BusyCycles) / float64(total)
}

// String implements fmt.Stringer with the headline numbers.
func (r Run) String() string {
	return fmt.Sprintf("%s/%s p=%d: %d cycles, %d instr, L2 MPKI %.3f, offchip %d B, steals %d",
		r.Workload, r.Scheduler, r.Cores, r.Cycles, r.Instructions, r.L2MPKI(), r.OffchipBytes, r.Steals)
}
