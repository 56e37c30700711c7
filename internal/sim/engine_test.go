package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/xprng"
)

func testConfig(cores int) machine.Config {
	cfg := machine.Default(cores)
	cfg.Name = "test"
	return cfg
}

func overheadsOf(cfg machine.Config) core.Overheads {
	return core.Overheads{
		PDFDispatch:  cfg.PDFDispatch,
		WSPopLocal:   cfg.WSPopLocal,
		WSStealProbe: cfg.WSStealProbe,
		WSStealXfer:  cfg.WSStealXfer,
	}
}

// computeTask returns a RunFunc that burns n cycles.
func computeTask(n int) dag.RunFunc {
	return func(r *trace.Recorder) { r.Compute(n) }
}

// singleNode builds a one-task graph.
func singleNode(n int) *dag.Graph {
	g := dag.New()
	g.AddNode("only", computeTask(n))
	g.MustFreeze()
	return g
}

// forkJoin builds root -> width compute tasks -> join.
func forkJoin(width, work int) *dag.Graph {
	g := dag.New()
	root := g.AddNode("root", nil)
	join := g.AddNode("join", nil)
	kids := make([]*dag.Node, width)
	for i := range kids {
		kids[i] = g.AddNode("w", computeTask(work))
	}
	g.Fan(root, join, kids...)
	g.MustFreeze()
	return g
}

func TestSingleNodeRuns(t *testing.T) {
	cfg := testConfig(1)
	e := New(cfg, singleNode(1000), core.NewPDF(overheadsOf(cfg)), nil)
	r := e.Run()
	if r.Tasks != 1 {
		t.Fatalf("tasks = %d", r.Tasks)
	}
	if r.Cycles < 1000 {
		t.Fatalf("cycles = %d, want >= 1000", r.Cycles)
	}
	if r.Instructions != 1000 {
		t.Fatalf("instructions = %d", r.Instructions)
	}
	if !e.Done() {
		t.Fatal("engine not done after Run")
	}
}

func TestForkJoinSpeedsUp(t *testing.T) {
	const width, work = 16, 5000
	run := func(cores int) metrics.Run {
		cfg := testConfig(cores)
		return New(cfg, forkJoin(width, work), core.NewPDF(overheadsOf(cfg)), nil).Run()
	}
	r1, r4 := run(1), run(4)
	sp := float64(r1.Cycles) / float64(r4.Cycles)
	if sp < 3 || sp > 4.2 {
		t.Fatalf("4-core speedup %.2f on embarrassingly parallel work, want ~4", sp)
	}
}

func TestAllSchedulersProduceLegalSchedules(t *testing.T) {
	if err := quick.Check(func(seed uint64, coresRaw, schedRaw uint8) bool {
		cores := []int{1, 2, 3, 4, 8}[int(coresRaw)%5]
		cfg := testConfig(cores)
		o := overheadsOf(cfg)
		var sched core.Scheduler
		switch schedRaw % 4 {
		case 0:
			sched = core.NewPDF(o)
		case 1:
			sched = core.NewWS(o, seed)
		case 2:
			w := core.NewWS(o, seed)
			w.StealNewest = true
			sched = w
		case 3:
			sched = core.NewFIFO(o.PDFDispatch)
		}
		g := randomGraph(xprng.New(seed), 5)
		e := New(cfg, g, sched, nil)
		e.CaptureTimeline = true
		e.Run()
		return dag.CheckSchedule(g, completionOrder(e)) == nil
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomGraph builds a random fork-join DAG with small compute+memory tasks.
func randomGraph(rng *xprng.PRNG, depth int) *dag.Graph {
	g := dag.New()
	sp := mem.NewSpace(0)
	arr := trace.NewArray[int64](sp, "data", 4096)
	root := g.AddNode("root", nil)
	var build func(parent *dag.Node, d int) *dag.Node
	build = func(parent *dag.Node, d int) *dag.Node {
		if d == 0 || rng.Intn(3) == 0 {
			base := rng.Intn(4000)
			leaf := g.AddNode("leaf", func(r *trace.Recorder) {
				for i := 0; i < 32; i++ {
					v := arr.Get(r, base+(i%64))
					arr.Set(r, base+(i%64), v+1)
					r.Compute(3)
				}
			})
			g.AddEdge(parent, leaf)
			return leaf
		}
		join := g.AddNode("join", nil)
		k := rng.Intn(3) + 2
		for i := 0; i < k; i++ {
			c := g.AddNode("mid", computeTask(rng.Intn(200)+1))
			g.AddEdge(parent, c)
			end := build(c, d-1)
			g.AddEdge(end, join)
		}
		return join
	}
	build(root, depth)
	g.MustFreeze()
	return g
}

func TestDeterminism(t *testing.T) {
	run := func() metrics.Run {
		cfg := testConfig(8)
		g := randomGraph(xprng.New(12345), 5)
		return New(cfg, g, core.NewWS(overheadsOf(cfg), 7), nil).Run()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic results:\n%+v\n%+v", a, b)
	}
}

func TestBrentBound(t *testing.T) {
	// Greedy scheduling theorem: T_P <= W/P + span contributions. With
	// per-task dispatch overhead o and task time c, a generous bound is
	// T_P <= W/P + D*(c + o + spawn) + slack. Check PDF and WS on fork-join
	// trees where work and depth are known exactly.
	for _, cores := range []int{1, 2, 4, 8} {
		for _, schedName := range []string{"pdf", "ws"} {
			cfg := testConfig(cores)
			const width, work = 32, 2000
			g := forkJoin(width, work)
			sched := core.ByName(schedName, overheadsOf(cfg), 1)
			r := New(cfg, g, sched, nil).Run()
			w := int64(width * work)
			depth := int64(3) // root, leaf, join
			perTask := int64(work) + cfg.PDFDispatch + cfg.WSStealXfer + cfg.WSStealProbe*int64(cores) + cfg.SpawnOverhead + cfg.IdleRetry
			bound := w/int64(cores) + depth*perTask + int64(width)*cfg.PDFDispatch
			if r.Cycles > bound {
				t.Errorf("%s p=%d: T=%d exceeds Brent-style bound %d", schedName, cores, r.Cycles, bound)
			}
		}
	}
}

func TestPDFPrematureBound(t *testing.T) {
	// PDF completes nodes close to sequential order: premature high-water
	// should be O(P*D). WS on a wide shallow graph can run essentially the
	// whole width out of order.
	cfg := testConfig(8)
	g := forkJoin(256, 500)
	d := dag.Analyze(g).Depth
	pdf := New(cfg, g, core.NewPDF(overheadsOf(cfg)), nil).Run()
	limit := 4 * cfg.Cores * d
	if pdf.MaxPremature > limit {
		t.Fatalf("PDF premature high-water %d exceeds %d (P=%d, D=%d)", pdf.MaxPremature, limit, cfg.Cores, d)
	}
}

func TestPDFMorePrematureDisciplineThanWS(t *testing.T) {
	// On a deep left-leaning graph with wide fan-outs, WS drifts far from
	// sequential order while PDF stays close.
	build := func() *dag.Graph {
		g := dag.New()
		prev := g.AddNode("root", nil)
		for lvl := 0; lvl < 20; lvl++ {
			join := g.AddNode("join", nil)
			kids := make([]*dag.Node, 16)
			for i := range kids {
				kids[i] = g.AddNode("k", computeTask(300))
			}
			g.Fan(prev, join, kids...)
			prev = join
		}
		g.MustFreeze()
		return g
	}
	cfg := testConfig(8)
	pdf := New(cfg, build(), core.NewPDF(overheadsOf(cfg)), nil).Run()
	ws := New(cfg, build(), core.NewWS(overheadsOf(cfg), 3), nil).Run()
	if pdf.MaxPremature > ws.MaxPremature {
		t.Fatalf("PDF premature %d > WS %d — priority order not honored",
			pdf.MaxPremature, ws.MaxPremature)
	}
}

func TestChunkedRunMatchesStraightRun(t *testing.T) {
	mk := func() *Engine {
		cfg := testConfig(4)
		return New(cfg, randomGraph(xprng.New(777), 4), core.NewPDF(overheadsOf(cfg)), nil)
	}
	straight := mk()
	full := straight.Run()

	chunked := mk()
	for !chunked.Done() {
		chunked.RunFor(137)
	}
	partial := chunked.Result()
	if full.L2Misses != partial.L2Misses || full.Instructions != partial.Instructions || full.Tasks != partial.Tasks {
		t.Fatalf("chunked run diverged:\nfull   %+v\nchunked %+v", full, partial)
	}
	// Clock may overshoot by at most the final quantum boundary handling.
	if partial.Cycles < full.Cycles {
		t.Fatalf("chunked finished earlier (%d) than straight (%d)", partial.Cycles, full.Cycles)
	}
}

func TestUnfrozenGraphPanics(t *testing.T) {
	g := dag.New()
	g.AddNode("x", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("unfrozen graph accepted")
		}
	}()
	cfg := testConfig(1)
	New(cfg, g, core.NewPDF(overheadsOf(cfg)), nil)
}

func TestWorkConservation(t *testing.T) {
	// Sum of per-core busy cycles must equal total instruction latency
	// charged; idle cores must accumulate idle cycles on starved graphs.
	cfg := testConfig(4)
	g := singleNode(10000) // only one task: 3 cores starve
	r := New(cfg, g, core.NewPDF(overheadsOf(cfg)), nil).Run()
	if r.BusyCycles < 10000 {
		t.Fatalf("busy cycles %d < task work", r.BusyCycles)
	}
	if r.IdleCycles == 0 {
		t.Fatal("starved cores recorded no idle cycles")
	}
}

func TestInstructionAccounting(t *testing.T) {
	sp := mem.NewSpace(0)
	arr := trace.NewArray[int64](sp, "a", 64)
	g := dag.New()
	g.AddNode("t", func(r *trace.Recorder) {
		r.Compute(10)
		arr.Get(r, 0)
		arr.Set(r, 1, 5)
	})
	g.MustFreeze()
	cfg := testConfig(1)
	r := New(cfg, g, core.NewPDF(overheadsOf(cfg)), nil).Run()
	if r.Instructions != 12 {
		t.Fatalf("instructions = %d, want 12", r.Instructions)
	}
	if r.L1Misses == 0 {
		t.Fatal("cold accesses produced no misses")
	}
}

func TestSharedHierarchyAcrossEngines(t *testing.T) {
	// Two engines sharing one hierarchy: the second sees the first's cache
	// contents (warm L2), the core of the multiprogramming experiment.
	cfg := testConfig(1)
	sp := mem.NewSpace(0)
	arr := trace.NewArray[int64](sp, "a", 1024)
	mkGraph := func() *dag.Graph {
		g := dag.New()
		g.AddNode("touch", func(r *trace.Recorder) {
			for i := 0; i < 1024; i++ {
				arr.Get(r, i)
			}
		})
		g.MustFreeze()
		return g
	}
	h := New(cfg, mkGraph(), core.NewPDF(overheadsOf(cfg)), nil)
	first := h.Run()
	second := New(cfg, mkGraph(), core.NewPDF(overheadsOf(cfg)), h.Hierarchy()).Run()
	// Second run inherits hierarchy counters; its own misses are the delta.
	deltaMisses := second.L2Misses - first.L2Misses
	if deltaMisses > first.L2Misses/4 {
		t.Fatalf("warm rerun missed %d times vs cold %d — hierarchy not shared", deltaMisses, first.L2Misses)
	}
}

// completionOrder lists the nodes of a CaptureTimeline run in completion
// order.
func completionOrder(e *Engine) []dag.NodeID {
	order := make([]dag.NodeID, len(e.Timeline))
	for i, sp := range e.Timeline {
		order[i] = sp.Node
	}
	return order
}
