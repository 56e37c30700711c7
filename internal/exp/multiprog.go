package exp

import (
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// runT4Multiprog reproduces the paper's multiprogramming observation: "the
// PDF version is also less of a cache hog and its smaller working set is
// more likely to remain in the cache across context switches."
//
// Setup: program A (mergesort, the program under test, in address space 0)
// time-slices with program B (a streaming scan in address space 1) on the
// same CMP, sharing the cache hierarchy. We run A for a quantum, record how
// many L2 lines it occupies (hogging), run B for a quantum, then measure
// how much of A's footprint survived and how sharply A's miss rate spikes
// right after resuming. Lower occupancy, higher survival, and a smaller
// resume spike are all direct consequences of PDF's smaller working set.
//
// This experiment does not decompose into runner cells: within one arm the
// interleaved RunFor steps of engines A and B share one Hierarchy, so each
// scheduler arm is a single stateful sequence. The two arms, however, are
// fully independent — each owns its own Hierarchy pair and engines — so they
// fan out as two coarse jobs on the shared worker budget, with rows emitted
// in canonical (pdf, ws) order regardless of which arm finishes first.
func runT4Multiprog(quick bool) (*Result, error) {
	cores := 8
	quantum := int64(2_000_000)
	if quick {
		quantum = 500_000
	}

	t := report.New("Multiprogramming: mergesort time-sliced with a streaming scan (8 cores)",
		"sched", "L2 lines held at switch", "survival after B %", "pre-switch MPKI", "resume-window MPKI", "spike x", "refill misses")
	t.Note = "paper: PDF hogs less cache and retains its working set across context switches"
	res := &Result{ID: "t4-multiprog", Tables: []*report.Table{t}}

	type arm struct {
		row  []any
		runs []metrics.Run
	}
	specA := workloads.Spec{Name: "mergesort", N: sizing(1<<19, quick), Grain: 2048, Seed: Seed, SpaceID: 0}
	specB := workloads.Spec{Name: "scan", N: sizing(1<<21, quick), Grain: 4096, Seed: Seed + 1, SpaceID: 1}
	scheds := []string{"pdf", "ws"}
	// Each arm acquires both programs: announce them all, so the first
	// arm's released copies stay idle for the second, and withdraw the
	// acquires of an arm that never started (runner.Map skips the rest
	// after an error).
	for range scheds {
		InstancePool.Expect(specA)
		InstancePool.Expect(specB)
	}
	started := make([]bool, len(scheds))
	defer func() {
		for _, s := range started {
			if !s {
				InstancePool.Withdraw(specA)
				InstancePool.Withdraw(specB)
			}
		}
	}()
	jobs := make([]runner.Job[arm], len(scheds))
	for i, sched := range scheds {
		jobs[i] = func() (arm, error) {
			started[i] = true
			row, runs, err := multiprogOnce(sched, specA, specB, cores, quantum)
			return arm{row, runs}, err
		}
	}
	arms, err := runner.Map(Parallelism, jobs)
	if err != nil {
		return nil, err
	}
	for _, a := range arms {
		t.AddRow(a.row...)
		res.Runs = append(res.Runs, a.runs...)
	}
	return res, nil
}

// multiprogOnce runs one scheduler arm of program A (specA) time-sliced
// with program B (specB) and returns its table row, as raw cells for
// report.Table.AddRow, and the two programs' results.
func multiprogOnce(sched string, specA, specB workloads.Spec, cores int, quantum int64) ([]any, []metrics.Run, error) {
	cfg := machine.Default(cores)
	inA := InstancePool.Acquire(specA, nil)
	inB := InstancePool.Acquire(specB, nil)
	inA.BeginRun()
	inB.BeginRun()

	engA := sim.New(cfg, inA.Graph, core.ByName(sched, OverheadsOf(cfg), Seed), nil)
	// B shares A's hierarchy: same L2, same bus — a context switch, not a
	// second chip. B always runs under WS; only A's scheduler varies.
	engB := sim.New(cfg, inB.Graph, core.ByName("ws", OverheadsOf(cfg), Seed), engA.Hierarchy())

	// Warm A up into the middle of its execution, then measure a window.
	engA.RunFor(quantum)
	preMisses := engA.Hierarchy().L2().Stats.Misses
	preInstr := engA.Instructions()
	engA.RunFor(quantum / 2)
	preMPKI := mpkiOf(engA.Hierarchy().L2().Stats.Misses-preMisses, engA.Instructions()-preInstr)

	// Context switch: A off, B on. B's quantum is sized to churn the cache
	// noticeably without flushing it outright — with a full flush both
	// schedulers restart stone-cold and the comparison degenerates.
	_, heldA := engA.Hierarchy().L2().CountValid(0)
	engB.RunFor(2 * quantum)
	_, survivedA := engA.Hierarchy().L2().CountValid(0)

	// Resume A; measure the cold-restart window. The refill cost — extra
	// misses A takes to get back up to speed — is the operational content
	// of "more likely to remain in the cache across context switches".
	resMisses := engA.Hierarchy().L2().Stats.Misses
	resInstr := engA.Instructions()
	engA.RunFor(quantum / 2)
	refill := engA.Hierarchy().L2().Stats.Misses - resMisses
	resMPKI := mpkiOf(refill, engA.Instructions()-resInstr)

	survival := 0.0
	if heldA > 0 {
		survival = 100 * float64(survivedA) / float64(heldA)
	}
	spike := ratio(resMPKI, preMPKI)

	// Finish both programs and verify correctness end-to-end.
	for !engA.Done() {
		engA.RunFor(quantum)
	}
	for !engB.Done() {
		engB.RunFor(quantum)
	}
	if errA, errB := inA.Verify(), inB.Verify(); errA != nil || errB != nil {
		// Failed instances never re-enter the pool; Discard balances the
		// checked-out accounting so later acquires are not misreported as
		// contended.
		InstancePool.Discard(inA)
		InstancePool.Discard(inB)
		if errA != nil {
			return nil, nil, errA
		}
		return nil, nil, errB
	}
	ra := engA.Result()
	ra.Workload = specA.Name
	rb := engB.Result()
	rb.Workload = specB.Name
	engA.Recycle()
	engB.Recycle()
	// Both programs verified and all results extracted: only now does
	// exclusive ownership end, so a concurrent arm's Acquire can never
	// reset an instance this arm's engines still reference.
	InstancePool.Release(inA)
	InstancePool.Release(inB)

	row := []any{sched, heldA, survival, preMPKI, resMPKI, spike, refill}
	return row, []metrics.Run{ra, rb}, nil
}

func mpkiOf(misses, instr int64) float64 {
	if instr <= 0 {
		return 0
	}
	return float64(misses) * 1000 / float64(instr)
}
