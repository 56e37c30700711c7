package workloads

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/machine"
	"repro/internal/sim"
)

// smallSpec returns a quick-to-simulate spec for each workload.
func smallSpec(name string) Spec {
	switch name {
	case "matmul":
		return Spec{Name: name, N: 32, Grain: 64, Seed: 42}
	case "lu":
		return Spec{Name: name, N: 32, Grain: 64, Seed: 42}
	case "fft":
		return Spec{Name: name, N: 1 << 10, Grain: 128, Seed: 42}
	case "spmv":
		return Spec{Name: name, N: 1 << 10, Grain: 256, Iters: 2, Seed: 42}
	default:
		return Spec{Name: name, N: 1 << 12, Grain: 256, Seed: 42}
	}
}

func runOn(t *testing.T, in *Instance, cores int, schedName string) {
	t.Helper()
	in.BeginRun()
	cfg := machine.Default(cores)
	o := core.Overheads{PDFDispatch: cfg.PDFDispatch, WSPopLocal: cfg.WSPopLocal,
		WSStealProbe: cfg.WSStealProbe, WSStealXfer: cfg.WSStealXfer}
	sched := core.ByName(schedName, o, 11)
	e := sim.New(cfg, in.Graph, sched, nil)
	e.CaptureTimeline = true
	r := e.Run()
	order := make([]dag.NodeID, len(e.Timeline))
	for i, sp := range e.Timeline {
		order[i] = sp.Node
	}
	if err := dag.CheckSchedule(in.Graph, order); err != nil {
		t.Fatalf("%v on %s/%d: illegal schedule: %v", in.Spec, schedName, cores, err)
	}
	if err := in.Verify(); err != nil {
		t.Fatalf("%v on %s/%d: wrong answer: %v", in.Spec, schedName, cores, err)
	}
	if r.Tasks != int64(in.Graph.Len()) {
		t.Fatalf("%v on %s/%d: ran %d of %d tasks", in.Spec, schedName, cores, r.Tasks, in.Graph.Len())
	}
	if err := e.Hierarchy().CheckInclusion(); err != nil {
		t.Fatalf("%v on %s/%d: %v", in.Spec, schedName, cores, err)
	}
}

// TestEveryWorkloadEverySchedulerIsCorrect is the central functional test:
// each workload computes the right answer under each scheduler at several
// core counts, with a legal schedule and coherent caches throughout.
func TestEveryWorkloadEverySchedulerIsCorrect(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, schedName := range []string{"pdf", "ws", "ws-stealnewest", "fifo"} {
				for _, cores := range []int{1, 4} {
					runOn(t, Build(smallSpec(name)), cores, schedName)
				}
			}
		})
	}
}

func TestWorkloadsAt8Cores(t *testing.T) {
	for _, name := range []string{"mergesort", "quicksort", "scan", "spmv"} {
		runOn(t, Build(smallSpec(name)), 8, "pdf")
		runOn(t, Build(smallSpec(name)), 8, "ws")
	}
}

func TestSameSpecBuildsIdenticalInstances(t *testing.T) {
	s := smallSpec("mergesort")
	a, b := Build(s), Build(s)
	if a.Graph.Len() != b.Graph.Len() {
		t.Fatalf("graph sizes differ: %d vs %d", a.Graph.Len(), b.Graph.Len())
	}
	if a.Footprint() != b.Footprint() {
		t.Fatalf("footprints differ")
	}
	// Simulations of the two instances must agree exactly.
	cfg := machine.Default(2)
	o := core.Overheads{PDFDispatch: cfg.PDFDispatch, WSPopLocal: cfg.WSPopLocal,
		WSStealProbe: cfg.WSStealProbe, WSStealXfer: cfg.WSStealXfer}
	ra := sim.New(cfg, a.Graph, core.NewPDF(o), nil).Run()
	rb := sim.New(cfg, b.Graph, core.NewPDF(o), nil).Run()
	ra.Workload, rb.Workload = "", ""
	if ra != rb {
		t.Fatalf("identical specs simulated differently:\n%+v\n%+v", ra, rb)
	}
}

func TestCoarseMergesortHasFewerTasks(t *testing.T) {
	fine := Build(Spec{Name: "mergesort", N: 1 << 12, Grain: 256, Seed: 1})
	coarse := Build(Spec{Name: "mergesort-coarse", N: 1 << 12, Grain: 256, Seed: 1})
	if coarse.Graph.Len() >= fine.Graph.Len() {
		t.Fatalf("coarse graph (%d) not smaller than fine (%d)", coarse.Graph.Len(), fine.Graph.Len())
	}
}

func TestGraphShapes(t *testing.T) {
	// Sanity: D&C workloads must expose substantial parallelism (max ready
	// width at least ~N/grain leaves), and depth far below node count.
	for _, name := range []string{"mergesort", "quicksort", "fft"} {
		in := Build(smallSpec(name))
		sh := dag.Analyze(in.Graph)
		if sh.MaxWidth < 8 {
			t.Errorf("%s: max width %d too low (no parallelism)", name, sh.MaxWidth)
		}
		if sh.Depth >= sh.Nodes/2 {
			t.Errorf("%s: depth %d vs %d nodes — nearly serial", name, sh.Depth, sh.Nodes)
		}
	}
}

func TestFootprints(t *testing.T) {
	in := Build(Spec{Name: "mergesort", N: 1 << 12, Grain: 256, Seed: 1})
	want := uint64(2 * (1 << 12) * 8) // keys + temp
	if in.Footprint() < want {
		t.Fatalf("mergesort footprint %d < %d", in.Footprint(), want)
	}
}

func TestBuildPanicsOnBadSpecs(t *testing.T) {
	cases := []Spec{
		{Name: "unknown", N: 10},
		{Name: "mergesort", N: 0},
		{Name: "matmul", N: 100, Grain: 64}, // not a power of two
		{Name: "fft", N: 100, Grain: 64},    // not a power of two
	}
	for _, s := range cases {
		s := s
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v did not panic", s)
				}
			}()
			Build(s)
		}()
	}
}

// TestVerifyCatchesCorruption: a clean run verifies; verifySorted rejects a
// changed element, an adjacent swap and a length mismatch; an unrun
// mergesort (its keys still in input order) fails Verify.
func TestVerifyCatchesCorruption(t *testing.T) {
	in := Build(smallSpec("scan"))
	cfg := machine.Default(1)
	o := core.Overheads{PDFDispatch: cfg.PDFDispatch}
	sim.New(cfg, in.Graph, core.NewPDF(o), nil).Run()
	if err := in.Verify(); err != nil {
		t.Fatalf("clean run failed verify: %v", err)
	}

	sorted := []int64{1, 2, 3, 5, 8}
	if err := verifySorted("ref", slices.Clone(sorted), sorted); err != nil {
		t.Fatalf("sorted output rejected: %v", err)
	}
	for _, got := range [][]int64{
		{1, 2, 4, 5, 8}, // one changed element
		{1, 3, 2, 5, 8}, // an adjacent swap
		{1, 2, 3, 5},    // a length mismatch
	} {
		if verifySorted("ref", got, sorted) == nil {
			t.Errorf("%v passed against %v", got, sorted)
		}
	}

	unrun := Build(smallSpec("mergesort"))
	if err := unrun.Verify(); err == nil {
		t.Fatal("unrun mergesort passed verification")
	}
}

// TestPooledSortsVerifyAfterReuse: a pooled mergesort or quicksort, reset by
// Acquire and run again, still verifies against the reference its Build
// sorted once, and the re-armed instance (keys back in input order) does
// not.
func TestPooledSortsVerifyAfterReuse(t *testing.T) {
	for _, name := range []string{"mergesort", "quicksort"} {
		p := NewPool(1 << 30)
		spec := smallSpec(name)
		p.Expect(spec) // two acquires coming: the release is wanted
		p.Expect(spec)
		in := p.Acquire(spec, nil)
		runOn(t, in, 2, "pdf")
		p.Release(in)
		if again := p.Acquire(spec, nil); again != in {
			t.Fatalf("%s: Acquire did not reuse the released instance", name)
		}
		if in.Verify() == nil {
			t.Fatalf("%s: reset instance passed verification before its run", name)
		}
		runOn(t, in, 4, "ws")
	}
}
