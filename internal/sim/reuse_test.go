package sim

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// reuseSpecs cover the mutation patterns a Reset must undo: ping-pong
// buffers (mergesort), in-place accumulation where a missed reset corrupts
// silently-plausible output (matmul: C += A×B twice would double), and
// scatter state plus per-block counters (hashjoin).
func reuseSpecs() []workloads.Spec {
	return []workloads.Spec{
		{Name: "mergesort", N: 1 << 12, Grain: 256, Seed: 7},
		{Name: "matmul", N: 32, Grain: 64, Seed: 7},
		{Name: "hashjoin", N: 1 << 12, Grain: 256, Seed: 7},
	}
}

// runInstance simulates one run of in under the named scheduler on a fresh
// engine, returning the full result record and completion order.
func runInstance(t *testing.T, in *workloads.Instance, sched string) (metrics.Run, []int32) {
	t.Helper()
	cfg := machine.Default(4)
	o := core.Overheads{PDFDispatch: cfg.PDFDispatch, WSPopLocal: cfg.WSPopLocal,
		WSStealProbe: cfg.WSStealProbe, WSStealXfer: cfg.WSStealXfer}
	in.BeginRun()
	e := New(cfg, in.Graph, core.ByName(sched, o, 3), nil)
	e.CaptureTimeline = true
	r := e.Run()
	if err := in.Verify(); err != nil {
		t.Fatalf("%v under %s: %v", in.Spec, sched, err)
	}
	order := make([]int32, len(e.Timeline))
	for i, sp := range e.Timeline {
		order[i] = int32(sp.Node)
	}
	return r, order
}

// TestReusedInstanceMatchesFreshBuilds is the reuse regression test: running
// one instance twice — under different schedulers, with a Reset between —
// must produce results identical to two independent fresh-build runs, down
// to the full metrics record and the task completion order. This is what
// makes pooled reuse invisible: all per-run state (pending counts,
// premature tracking, recorders, hierarchy, scheduler) is owned by the
// engine built for the run, never by the instance, and Reset restores the
// instance's only mutable state (its array bytes) exactly.
func TestReusedInstanceMatchesFreshBuilds(t *testing.T) {
	for _, spec := range reuseSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			wantPDF, orderPDF := runInstance(t, workloads.Build(spec), "pdf")
			wantWS, orderWS := runInstance(t, workloads.Build(spec), "ws")

			in := workloads.Build(spec)
			gotPDF, gotOrderPDF := runInstance(t, in, "pdf")
			in.Reset()
			gotWS, gotOrderWS := runInstance(t, in, "ws")

			if gotPDF != wantPDF {
				t.Errorf("pdf rerun diverged:\n got %+v\nwant %+v", gotPDF, wantPDF)
			}
			if gotWS != wantWS {
				t.Errorf("ws rerun diverged:\n got %+v\nwant %+v", gotWS, wantWS)
			}
			if !slices.Equal(gotOrderPDF, orderPDF) || !slices.Equal(gotOrderWS, orderWS) {
				t.Error("completion order diverged between fresh and reused instance")
			}
		})
	}
}

// TestReusedInstanceSameSchedulerIsDeterministic re-runs one instance under
// the same scheduler: reset-rerun must be a fixed point, not merely close.
func TestReusedInstanceSameSchedulerIsDeterministic(t *testing.T) {
	spec := workloads.Spec{Name: "scan", N: 1 << 12, Grain: 256, Seed: 5}
	in := workloads.Build(spec)
	first, _ := runInstance(t, in, "ws")
	for i := 0; i < 2; i++ {
		in.Reset()
		again, _ := runInstance(t, in, "ws")
		if again != first {
			t.Fatalf("rerun %d diverged:\n got %+v\nwant %+v", i+1, again, first)
		}
	}
}
