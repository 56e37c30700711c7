package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xprng"
)

// TestSerialChainNoSpeedup: a pure chain cannot use more than one core; the
// engine must neither deadlock nor "speed up" nonsense.
func TestSerialChainNoSpeedup(t *testing.T) {
	mkChain := func() *dag.Graph {
		g := dag.New()
		nodes := make([]*dag.Node, 50)
		for i := range nodes {
			nodes[i] = g.AddNode("n", computeTask(500))
		}
		g.Chain(nodes...)
		g.MustFreeze()
		return g
	}
	cfg1 := testConfig(1)
	cfg8 := testConfig(8)
	r1 := New(cfg1, mkChain(), core.NewWS(overheadsOf(cfg1), 1), nil).Run()
	r8 := New(cfg8, mkChain(), core.NewWS(overheadsOf(cfg8), 1), nil).Run()
	if r8.Cycles < r1.Cycles*95/100 {
		t.Fatalf("chain 'sped up' from %d to %d cycles on 8 cores", r1.Cycles, r8.Cycles)
	}
}

// TestEmptyRunFuncNodesCostOnlyOverhead: pure sync nodes must not execute
// instructions.
func TestEmptyRunFuncNodesCostOnlyOverhead(t *testing.T) {
	g := dag.New()
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a, b)
	g.MustFreeze()
	cfg := testConfig(2)
	r := New(cfg, g, core.NewPDF(overheadsOf(cfg)), nil).Run()
	if r.Instructions != 0 {
		t.Fatalf("sync-only graph executed %d instructions", r.Instructions)
	}
	if r.Tasks != 2 {
		t.Fatalf("ran %d tasks, want 2", r.Tasks)
	}
}

// TestSchedulerOverheadChargedOnce: dispatch cycles must scale with task
// count, not explode with idle polling on a saturated machine.
func TestSchedulerOverheadCharged(t *testing.T) {
	cfg := testConfig(2)
	g := forkJoin(64, 100)
	r := New(cfg, g, core.NewPDF(overheadsOf(cfg)), nil).Run()
	minDispatch := int64(g.Len()) * cfg.PDFDispatch
	if r.DispatchCyc < minDispatch {
		t.Fatalf("dispatch cycles %d below %d (one pop per task)", r.DispatchCyc, minDispatch)
	}
}

// TestDeterminismAcrossSchedulersAndCores: quick-check the full engine for
// run-to-run determinism over random graphs, schedulers, and core counts.
func TestDeterminismProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, coreRaw, schedRaw uint8) bool {
		cores := []int{1, 2, 5, 8}[int(coreRaw)%4]
		schedName := []string{"pdf", "ws", "ws-stealnewest", "fifo"}[int(schedRaw)%4]
		run := func() int64 {
			cfg := testConfig(cores)
			g := randomGraph(xprng.New(seed), 4)
			r := New(cfg, g, core.ByName(schedName, overheadsOf(cfg), seed), nil).Run()
			return r.Cycles*1000003 + r.L2Misses
		}
		return run() == run()
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryBoundTaskStallsAccounted: a task that only misses must show
// busy cycles far above its instruction count (stall time is busy time).
func TestMemoryBoundTaskStallsAccounted(t *testing.T) {
	cfg := testConfig(1)
	g := dag.New()
	g.AddNode("misser", func(r *trace.Recorder) {
		for i := 0; i < 100; i++ {
			r.Load(mem.Addr(1<<20 + i*4096)) // distinct pages: all miss
		}
	})
	g.MustFreeze()
	r := New(cfg, g, core.NewPDF(overheadsOf(cfg)), nil).Run()
	if r.BusyCycles < 100*cfg.MemLat {
		t.Fatalf("busy %d cycles for 100 cold misses (memlat %d)", r.BusyCycles, cfg.MemLat)
	}
	if r.Instructions != 100 {
		t.Fatalf("instructions = %d", r.Instructions)
	}
}

// TestRunUntilDoesNotOvershoot: the clock never advances past the limit
// while work remains.
func TestRunUntilDoesNotOvershoot(t *testing.T) {
	cfg := testConfig(2)
	e := New(cfg, forkJoin(32, 5000), core.NewPDF(overheadsOf(cfg)), nil)
	e.RunUntil(10000)
	if e.Now() > 10000 {
		t.Fatalf("clock at %d after RunUntil(10000)", e.Now())
	}
	if e.Done() {
		t.Fatal("160k cycles of work finished in 10k cycles")
	}
	e.RunUntil(1 << 40)
	if !e.Done() {
		t.Fatal("engine did not finish")
	}
}

// TestConfigSweepAllCoreCounts smoke-runs one small graph on every default
// configuration, confirming the whole machine sweep is executable.
func TestConfigSweepAllCoreCounts(t *testing.T) {
	for _, cfg := range machine.DefaultSweep() {
		g := forkJoin(64, 200)
		r := New(cfg, g, core.NewWS(overheadsOf(cfg), 7), nil).Run()
		if r.Tasks != int64(g.Len()) {
			t.Fatalf("%s: ran %d of %d tasks", cfg.Name, r.Tasks, g.Len())
		}
	}
}
