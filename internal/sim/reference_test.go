package sim

// Differential testing of the optimized engine against a stepwise reference.
//
// RunUntil earns its speed from three semantic claims: the head of its
// sorted order of (time, core id) keys is the event the stepwise min-scan
// picks, and the next key is the earliest event of every other core;
// fusing an action run into one pop, up to that event, never reorders
// operations on shared cache/bus state; and a private L1 hit replayed ahead
// of global order commutes with every other core's access, except one that
// drops or downgrades the same way after it in stepwise order, and the
// hierarchy then rolls it back and the engine rewinds the core exactly. The
// reference implementation below keeps the simple invariants — one global
// min-scan per event, one action per event (a memory action's post is an
// event of its own), Hierarchy.AccessLine for every memory action, no
// sorted order, no fusion, no run-ahead — and the tests here
// drive both implementations over seeded-random DAGs, schedulers, core
// counts, and quantum sizes, demanding identical cycles, instruction
// counts, cache and bus statistics, and completion order. Each differential also asserts, through the engine's
// counters, that run-ahead hits and rollbacks actually happened in it.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xprng"
)

// refRunUntil advances e with stepwise reference semantics: select the core
// with the minimum next-event time (ties to the lowest core id), process
// exactly one event, repeat. It shares dispatch/complete and the cache
// hierarchy with the real engine — the machinery under test is only event
// selection, action fusion, and run-ahead with rollback.
func refRunUntil(e *Engine, limit int64) {
	for !e.Done() {
		c := 0
		min := e.nextAt[0]
		for i := 1; i < len(e.nextAt); i++ {
			if e.nextAt[i] < min {
				min, c = e.nextAt[i], i
			}
		}
		if min >= limit {
			e.now = limit
			return
		}
		e.now = min
		cs := &e.cores[c]
		switch {
		case cs.task == nil:
			e.dispatch(c)
		case cs.ip < len(cs.actions):
			// A memory action's post is the core's next event after the
			// access, as the standalone Compute it was folded from would be.
			a := cs.actions[cs.ip]
			var done int64
			switch {
			case cs.post:
				done = e.now + a.Post()
				e.instructions += a.Post()
				cs.post = false
				cs.ip++
			case a.Kind() == trace.Compute:
				done = e.now + a.N()
				e.instructions += a.N()
				cs.ip++
			default:
				done = e.hier.AccessLine(c, a.Line(e.hier.LineShift()), a.Kind() == trace.Store, e.now)
				e.instructions++
				if a.Post() != 0 {
					cs.post = true
				} else {
					cs.ip++
				}
			}
			cs.busy += done - e.now
			e.nextAt[c] = done
		default:
			e.complete(c)
		}
	}
}

func refRunFor(e *Engine, delta int64) { refRunUntil(e, e.now+delta) }

func refRun(e *Engine) {
	refRunUntil(e, hardLimit)
	if !e.Done() {
		panic("reference engine hit the hard limit")
	}
}

// hierState renders every observable counter of a hierarchy, so a
// differential mismatch pinpoints the diverging statistic.
func hierState(h *cache.Hierarchy, cores int) string {
	var b strings.Builder
	for c := 0; c < cores; c++ {
		fmt.Fprintf(&b, "L1.%d %+v\n", c, h.L1(c).Stats)
	}
	fmt.Fprintf(&b, "L2 %+v\noffchip %d transfers %d bytes\nbus queue %d",
		h.L2().Stats, h.Bus().Transfers, h.Bus().Bytes, h.Bus().QueueCycles)
	return b.String()
}

// memHeavyGraph is randomGraph's cache-hostile sibling: a larger shared
// array (too big for one L1) with strided reads and writes, so the
// differential runs exercise L1 misses, L2 misses, dirty evictions, and
// cross-core coherence (upgrades, downgrades, invalidations), not just the
// hit path.
func memHeavyGraph(rng *xprng.PRNG, depth int) *dag.Graph {
	g := dag.New()
	sp := mem.NewSpace(0)
	arr := trace.NewArray[int64](sp, "shared", 1<<15)
	root := g.AddNode("root", nil)
	var build func(parent *dag.Node, d int) *dag.Node
	build = func(parent *dag.Node, d int) *dag.Node {
		if d == 0 || rng.Intn(3) == 0 {
			base := rng.Intn(1 << 14)
			stride := []int{1, 9, 64, 129}[rng.Intn(4)]
			leaf := g.AddNode("leaf", func(r *trace.Recorder) {
				idx := base
				for i := 0; i < 48; i++ {
					idx = (idx + stride) % (1 << 15)
					v := arr.Get(r, idx)
					arr.Set(r, idx, v+1)
					if i%8 == 0 {
						r.Compute(5)
					}
				}
			})
			g.AddEdge(parent, leaf)
			return leaf
		}
		join := g.AddNode("join", nil)
		k := rng.Intn(3) + 2
		for i := 0; i < k; i++ {
			c := g.AddNode("mid", computeTask(rng.Intn(150)+1))
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

func schedByIndex(i int, o core.Overheads, seed uint64) core.Scheduler {
	return core.ByName([]string{"pdf", "ws", "ws-stealnewest", "fifo"}[i], o, seed)
}

var schedNames = []string{"pdf", "ws", "ws-stealnewest", "fifo"}

// comparePair runs the same (graph seed, scheduler, cores) cell through the
// optimized engine and the reference, then compares every observable. It
// returns the optimized engine, whose counters show which paths ran.
func comparePair(t *testing.T, label string, mkGraph func(*xprng.PRNG, int) *dag.Graph, seed uint64, schedIdx, cores, depth int, drive func(real, ref *Engine)) *Engine {
	t.Helper()
	cfg := testConfig(cores)
	o := overheadsOf(cfg)

	real := New(cfg, mkGraph(xprng.New(seed), depth), schedByIndex(schedIdx, o, seed), nil)
	real.CaptureTimeline = true
	ref := New(cfg, mkGraph(xprng.New(seed), depth), schedByIndex(schedIdx, o, seed), nil)
	ref.CaptureTimeline = true

	drive(real, ref)

	rr, fr := real.Result(), ref.Result()
	if rr != fr {
		t.Fatalf("%s: results diverged\nreal %+v\nref  %+v", label, rr, fr)
	}
	if real.Now() != ref.Now() {
		t.Fatalf("%s: clocks diverged: real %d ref %d", label, real.Now(), ref.Now())
	}
	if len(real.Timeline) != len(ref.Timeline) {
		t.Fatalf("%s: completion counts diverged: real %d ref %d", label, len(real.Timeline), len(ref.Timeline))
	}
	for i := range real.Timeline {
		if real.Timeline[i].Node != ref.Timeline[i].Node {
			t.Fatalf("%s: completion order diverged at %d: real %v ref %v", label, i, real.Timeline[i].Node, ref.Timeline[i].Node)
		}
	}
	if rs, fs := hierState(real.Hierarchy(), cores), hierState(ref.Hierarchy(), cores); rs != fs {
		t.Fatalf("%s: cache state diverged\nreal:\n%s\nref:\n%s", label, rs, fs)
	}
	return real
}

// requireRunAhead fails the test unless the engines ran both run-ahead
// paths — hits replayed ahead of global order, and rollbacks of them — so a
// differential that passes has actually compared them.
func requireRunAhead(t *testing.T, label string, engines ...*Engine) {
	t.Helper()
	var hits, rollbacks int64
	for _, e := range engines {
		hits += e.runAheadHits
		rollbacks += e.rollbacks
	}
	if hits == 0 || rollbacks == 0 {
		t.Fatalf("%s: run-ahead hits %d, rollbacks %d — the differential no longer exercises both", label, hits, rollbacks)
	}
}

// TestEngineMatchesReference drives full runs over the cross product of
// graph shapes, schedulers, core counts, and seeds.
func TestEngineMatchesReference(t *testing.T) {
	graphs := map[string]func(*xprng.PRNG, int) *dag.Graph{
		"random":   randomGraph,
		"memheavy": memHeavyGraph,
	}
	for gname, mk := range graphs {
		var engines []*Engine
		for schedIdx := range schedNames {
			for _, cores := range []int{1, 2, 3, 8, 17, 64} {
				for seed := uint64(1); seed <= 3; seed++ {
					label := fmt.Sprintf("%s/%s/cores=%d/seed=%d", gname, schedNames[schedIdx], cores, seed)
					engines = append(engines, comparePair(t, label, mk, seed, schedIdx, cores, 5, func(real, ref *Engine) {
						real.RunUntil(hardLimit)
						refRun(ref)
					}))
				}
			}
		}
		requireRunAhead(t, gname, engines...)
	}
}

// TestEngineMatchesReferenceChunked re-runs the differential with RunFor
// quanta, comparing clock and instruction counts at every quantum boundary —
// the regression class where a fused, batched or run-ahead event slips past
// the limit that stepwise execution would have honored, or a rollback
// straddles a boundary. The memory-heavy cell covers misses and coherence;
// the 8-core random cell is one whose cores run ahead and roll back under
// every scheduler.
func TestEngineMatchesReferenceChunked(t *testing.T) {
	cells := []struct {
		name         string
		mk           func(*xprng.PRNG, int) *dag.Graph
		seed         uint64
		cores, depth int
	}{
		{"memheavy", memHeavyGraph, 11, 4, 4},
		{"random", randomGraph, 2, 8, 5},
	}
	for _, quantum := range []int64{1, 7, 137, 4099} {
		var engines []*Engine
		for _, cell := range cells {
			for schedIdx := range schedNames {
				label := fmt.Sprintf("%s/%s/q=%d", cell.name, schedNames[schedIdx], quantum)
				engines = append(engines, comparePair(t, label, cell.mk, cell.seed, schedIdx, cell.cores, cell.depth, func(real, ref *Engine) {
					for !real.Done() || !ref.Done() {
						real.RunFor(quantum)
						refRunFor(ref, quantum)
						if real.Now() != ref.Now() {
							t.Fatalf("%s: clocks diverged mid-run: real %d ref %d", label, real.Now(), ref.Now())
						}
						if real.Instructions() != ref.Instructions() {
							t.Fatalf("%s: instructions diverged at cycle %d: real %d ref %d",
								label, real.Now(), real.Instructions(), ref.Instructions())
						}
					}
				}))
			}
		}
		// A one-cycle quantum leaves no room to run ahead: every action
		// started before the limit is the stepwise-next one.
		if quantum > 1 {
			requireRunAhead(t, fmt.Sprintf("q=%d", quantum), engines...)
		}
	}
}

// TestEngineMatchesReferenceSharedHierarchy is the multiprogramming shape:
// two engines time-slicing one cache hierarchy. Quantum boundaries land in
// the middle of fused and run-ahead runs, and every interleaving
// error shows up as a cache-stat or clock divergence.
func TestEngineMatchesReferenceSharedHierarchy(t *testing.T) {
	const quantum = 131
	cfg := testConfig(4)
	o := overheadsOf(cfg)

	mk := func(step func(*Engine, int64)) (func() bool, *cache.Hierarchy, *Engine, *Engine) {
		a := New(cfg, memHeavyGraph(xprng.New(21), 4), core.NewPDF(o), nil)
		b := New(cfg, randomGraph(xprng.New(22), 5), core.NewWS(o, 5), a.Hierarchy())
		tick := func() bool {
			if !a.Done() {
				step(a, quantum)
			}
			if !b.Done() {
				step(b, quantum)
			}
			return a.Done() && b.Done()
		}
		return tick, a.Hierarchy(), a, b
	}

	realTick, realHier, realA, realB := mk((*Engine).RunFor)
	refTick, refHier, refA, refB := mk(refRunFor)

	for done := false; !done; {
		done = realTick()
		if refDone := refTick(); refDone != done {
			t.Fatal("real and reference multiprogram runs finished on different ticks")
		}
		if realA.Now() != refA.Now() || realB.Now() != refB.Now() {
			t.Fatalf("clocks diverged: real A=%d B=%d, ref A=%d B=%d",
				realA.Now(), realB.Now(), refA.Now(), refB.Now())
		}
	}
	if ra, fa := realA.Result(), refA.Result(); ra != fa {
		t.Fatalf("program A diverged\nreal %+v\nref  %+v", ra, fa)
	}
	if rb, fb := realB.Result(), refB.Result(); rb != fb {
		t.Fatalf("program B diverged\nreal %+v\nref  %+v", rb, fb)
	}
	if rs, fs := hierState(realHier, cfg.Cores), hierState(refHier, cfg.Cores); rs != fs {
		t.Fatalf("shared cache state diverged\nreal:\n%s\nref:\n%s", rs, fs)
	}
	requireRunAhead(t, "shared", realA, realB)
}

// TestRunAheadRollbackTie drives the rollback tie rule end to end on two
// cores. A reader streams L1 hits on one line while a writer computes and
// then stores to it. The reader runs ahead one window — 64 one-cycle hits —
// from the cycle of the writer's store, so its first logged hit ties with
// the store. Stepwise order breaks the tie by core id: with the reader on
// core 0 its tied hit comes first and survives (63 undone); on core 1 it
// comes second and is undone with the rest (64). Either way the run must
// match the reference exactly and leave inclusion and the directory intact.
func TestRunAheadRollbackTie(t *testing.T) {
	for _, tc := range []struct {
		readerCore int
		undone     int64
	}{{0, 63}, {1, 64}} {
		mk := func() *dag.Graph {
			arr := trace.NewArray[int64](mem.NewSpace(0), "line", 8)
			g := dag.New()
			root := g.AddNode("root", nil)
			join := g.AddNode("join", nil)
			reader := g.AddNode("reader", func(r *trace.Recorder) {
				for i := 0; i < 2000; i++ {
					arr.Get(r, i%8)
				}
			})
			writer := g.AddNode("writer", func(r *trace.Recorder) {
				r.Compute(600)
				arr.Set(r, 3, 1)
			})
			// PDF hands the leftmost child to core 0, which finishes the
			// root; core 1 picks up the other at its next idle poll.
			if tc.readerCore == 0 {
				g.Fan(root, join, reader, writer)
			} else {
				g.Fan(root, join, writer, reader)
			}
			g.MustFreeze()
			return g
		}
		cfg := testConfig(2)
		o := overheadsOf(cfg)
		real := New(cfg, mk(), core.NewPDF(o), nil)
		real.CaptureTimeline = true
		ref := New(cfg, mk(), core.NewPDF(o), nil)
		real.RunUntil(hardLimit)
		refRun(ref)

		label := fmt.Sprintf("reader on core %d", tc.readerCore)
		for _, sp := range real.Timeline {
			if real.g.Node(sp.Node).Label == "reader" && sp.Core != tc.readerCore {
				t.Fatalf("%s: reader ran on core %d", label, sp.Core)
			}
		}
		if rr, fr := real.Result(), ref.Result(); rr != fr {
			t.Fatalf("%s: results diverged\nreal %+v\nref  %+v", label, rr, fr)
		}
		if rs, fs := hierState(real.Hierarchy(), 2), hierState(ref.Hierarchy(), 2); rs != fs {
			t.Fatalf("%s: cache state diverged\nreal:\n%s\nref:\n%s", label, rs, fs)
		}
		if real.rollbacks != 1 || real.rolledBackHits != tc.undone {
			t.Fatalf("%s: %d rollbacks undid %d hits, want 1 undoing %d",
				label, real.rollbacks, real.rolledBackHits, tc.undone)
		}
		for _, e := range []*Engine{real, ref} {
			if err := e.Hierarchy().CheckInclusion(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
}

// TestSplitWordMatchesReference drives cells whose RunFor limits land
// between a memory action and its post — the split word, whose access
// completes at or past the limit, so its post must wait for the next
// RunUntil as its own event. Every quantum from 1 to 96 cycles moves the
// limits across each access. On one core every split comes from the exact
// phase. On two, a reader's run-ahead hits split too, and a writer's
// stores to the reader's line roll those hits back, across split words
// as well. At every boundary the clock, the instruction count and each
// core's busy cycles must equal the stepwise reference's, and across the
// quanta some boundary must have caught a split word pending. (Counted on
// an instrumented build: the walker splits 4,176 times, all in the exact
// phase; the reader-writer cell 3,819 times there and 1,132 in run-ahead,
// and 215 of its rollbacks rewind across a split word.)
func TestSplitWordMatchesReference(t *testing.T) {
	// walker strides over an array twice an L1's size, so its accesses
	// mix hits, L1 misses and off-chip misses, each with a post.
	walker := func(arr trace.Array[int64], base int) dag.RunFunc {
		return func(r *trace.Recorder) {
			for i := 0; i < 96; i++ {
				idx := (base + i*37) % arr.Len()
				arr.Set(r, idx, arr.Get(r, idx)+1)
				r.Compute(1 + i%4)
			}
		}
	}
	mk := map[string]func() *dag.Graph{
		"walker": func() *dag.Graph {
			arr := trace.NewArray[int64](mem.NewSpace(0), "a", 8192)
			g := dag.New()
			g.AddNode("walker", walker(arr, 0))
			g.MustFreeze()
			return g
		},
		// A reader streams post-carrying hits on one line, which a writer
		// on the other core keeps storing to.
		"reader-writer": func() *dag.Graph {
			arr := trace.NewArray[int64](mem.NewSpace(0), "line", 8)
			g := dag.New()
			root := g.AddNode("root", nil)
			join := g.AddNode("join", nil)
			reader := g.AddNode("reader", func(r *trace.Recorder) {
				for i := 0; i < 600; i++ {
					arr.Get(r, i%8)
					r.Compute(1 + i%3)
				}
			})
			writer := g.AddNode("writer", func(r *trace.Recorder) {
				for i := 0; i < 12; i++ {
					r.Compute(40 + 7*i)
					arr.Set(r, i%8, int64(i))
					r.Compute(2)
				}
			})
			g.Fan(root, join, reader, writer)
			g.MustFreeze()
			return g
		},
	}
	for _, tc := range []struct {
		graph string
		cores int
	}{{"walker", 1}, {"reader-writer", 2}} {
		split := false
		var rollbacks int64
		for quantum := int64(1); quantum <= 96; quantum++ {
			cfg := testConfig(tc.cores)
			o := overheadsOf(cfg)
			real := New(cfg, mk[tc.graph](), core.NewPDF(o), nil)
			ref := New(cfg, mk[tc.graph](), core.NewPDF(o), nil)
			label := fmt.Sprintf("%s/cores=%d/q=%d", tc.graph, tc.cores, quantum)
			for !real.Done() || !ref.Done() {
				real.RunFor(quantum)
				refRunFor(ref, quantum)
				if real.Now() != ref.Now() || real.Instructions() != ref.Instructions() {
					t.Fatalf("%s: at the boundary real is at cycle %d with %d instructions, ref at %d with %d",
						label, real.Now(), real.Instructions(), ref.Now(), ref.Instructions())
				}
				for c := range real.cores {
					if rb, fb := real.cores[c].busy, ref.cores[c].busy; rb != fb {
						t.Fatalf("%s: core %d busy %d cycles at cycle %d, ref %d", label, c, rb, real.Now(), fb)
					}
					split = split || real.cores[c].post
				}
			}
			if rr, fr := real.Result(), ref.Result(); rr != fr {
				t.Fatalf("%s: results diverged\nreal %+v\nref  %+v", label, rr, fr)
			}
			rollbacks += real.rollbacks
		}
		if !split {
			t.Fatalf("%s/cores=%d: no boundary caught a split word", tc.graph, tc.cores)
		}
		if tc.cores > 1 && rollbacks == 0 {
			t.Fatalf("%s/cores=%d: no rollbacks", tc.graph, tc.cores)
		}
	}
}
