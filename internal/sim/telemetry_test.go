package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// TestRunAheadCountersPinned pins the engine counters of two fixed 8-core
// cells: matmul, where nearly every action is a private L1 hit that runs
// ahead, and a memory-bound mergesort on a 128 KiB L2 (a service-mixed
// cell shape), where run-ahead meets coherence traffic and rolls back. The counts
// are deterministic, so a change that quietly disables run-ahead, shortens
// its reach, or multiplies rollbacks fails here instead of hiding in host
// noise. The process totals must move by exactly the engine's counts.
func TestRunAheadCountersPinned(t *testing.T) {
	for _, tc := range []struct {
		spec                                    workloads.Spec
		sched                                   string
		l2                                      int64
		events, hits, rollbacks, rolledBackHits int64
	}{
		{workloads.Spec{Name: "matmul", N: 64, Grain: 256, Seed: 1}, "pdf", 0, 35668, 678088, 0, 0},
		{workloads.Spec{Name: "mergesort", N: 16384, Grain: 1024, Seed: 1}, "pdf", 128 << 10, 78434, 426999, 9, 50},
	} {
		cfg := machine.Default(8)
		if tc.l2 != 0 {
			cfg.L2Size = tc.l2
		}
		o := core.Overheads{PDFDispatch: cfg.PDFDispatch, WSPopLocal: cfg.WSPopLocal,
			WSStealProbe: cfg.WSStealProbe, WSStealXfer: cfg.WSStealXfer}
		in := workloads.Build(tc.spec)
		in.BeginRun()
		e := New(cfg, in.Graph, core.ByName(tc.sched, o, 1), nil)
		before := [4]int64{simEvents.Load(), simRunAheadHits.Load(), simRollbacks.Load(), simRolledBackHits.Load()}
		e.Run()
		if err := in.Verify(); err != nil {
			t.Fatal(err)
		}
		got := [4]int64{e.events, e.runAheadHits, e.rollbacks, e.rolledBackHits}
		want := [4]int64{tc.events, tc.hits, tc.rollbacks, tc.rolledBackHits}
		if got != want {
			t.Errorf("%s/%s: events, run-ahead hits, rollbacks, rolled-back hits = %v, want %v",
				tc.spec.Name, tc.sched, got, want)
		}
		after := [4]int64{simEvents.Load(), simRunAheadHits.Load(), simRollbacks.Load(), simRolledBackHits.Load()}
		for i := range got {
			if after[i]-before[i] != got[i] {
				t.Errorf("%s/%s: process total %d moved by %d, engine counted %d",
					tc.spec.Name, tc.sched, i, after[i]-before[i], got[i])
			}
		}
	}
}
