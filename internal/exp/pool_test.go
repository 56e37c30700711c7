package exp

import (
	"context"
	"errors"
	"testing"

	"repro/internal/grid"
	"repro/internal/rcache"
	"repro/internal/testutil"
	"repro/internal/workloads"
)

// TestPooledMatchesUnpooled asserts the instance pool's core guarantee:
// experiment output is byte-identical with the pool on or off, at serial
// and parallel fan-out — a reset instance is indistinguishable from a fresh
// build. The unpooled side is an uncached render of its own; it and the
// pooled renders are each compared with the quick-suite reference (itself
// pooled, so every experiment's pooled bytes are pinned by its golden).
// fig1-misses exercises the dense shared-spec grid (8 cells, one spec: the
// pool's best case), t4-multiprog the bespoke two-arm path that acquires
// two instances per arm and time-slices stateful engines, and a5-premature
// the DAG analysis that acquires before its grid runs. The last two acquire
// outside a grid's cells, so their serial build and hit counts are pinned:
// t4's second arm reuses both of the first arm's programs, and a5's
// analysed instance serves its grid's cells.
func TestPooledMatchesUnpooled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	defer func(oldP int, oldC *rcache.Store, oldPool *workloads.Pool) {
		Parallelism, Cache, InstancePool = oldP, oldC, oldPool
	}(Parallelism, Cache, InstancePool)
	Cache = nil // no cell memoization: every cell exercises the pool

	serial := map[string][2]float64{ // id → {builds, hits} at Parallelism=1
		"t4-multiprog": {2, 2},
		"a5-premature": {1, 4},
	}
	for _, id := range []string{"fig1-misses", "t4-multiprog", "a5-premature"} {
		want := reference(t, id).out
		Parallelism, InstancePool = 8, nil
		if got := renderAll(t, id); got != want {
			t.Errorf("%s: unpooled output differs from the pooled reference:\n--- reference ---\n%s\n--- unpooled ---\n%s",
				id, want, got)
		}
		for _, p := range []int{1, 8} {
			Parallelism = p
			InstancePool = workloads.NewPool(workloads.DefaultPoolBudget)
			if got := renderAll(t, id); got != want {
				t.Errorf("%s: pooled output at Parallelism=%d differs from the reference:\n--- reference ---\n%s\n--- pooled ---\n%s",
					id, p, want, got)
			}
			wpool := func(name string) float64 {
				return testutil.Series(t, InstancePool.RegisterMetrics, "wpool_"+name)[""]
			}
			hits, misses, cont := wpool("hits_total"), wpool("misses_total"), wpool("contended_total")
			if hits+misses == 0 {
				t.Errorf("%s: pool saw no traffic at Parallelism=%d", id, p)
			}
			// Serial runs have zero contention, so reuse is exact: one build
			// per distinct spec, everything else hits.
			if p == 1 && hits == 0 {
				t.Errorf("%s: serial pooled run never reused an instance: %v misses", id, misses)
			}
			if p == 1 && cont != 0 {
				t.Errorf("%s: serial pooled run reported contention: %v of %v misses", id, cont, misses)
			}
			if want, ok := serial[id]; ok && p == 1 && (misses != want[0] || hits != want[1]) {
				t.Errorf("%s: serial pooled run: %v builds, %v hits; want %v, %v", id, misses, hits, want[0], want[1])
			}
			if d, idle := poolDemand(t); d != 0 || idle != 0 {
				t.Errorf("%s: demand/idle = %v/%v after the run at Parallelism=%d, want 0/0", id, d, idle, p)
			}
		}
	}
}

// poolDemand reads InstancePool's wpool_demand and wpool_idle_instances.
func poolDemand(t *testing.T) (demand, idle float64) {
	t.Helper()
	s := func(name string) float64 {
		return testutil.Series(t, InstancePool.RegisterMetrics, "wpool_"+name)[""]
	}
	return s("demand"), s("idle_instances")
}

// TestRunGridStreamSettlesDemand pins RunGridStream's half of the pool's
// demand rule: every announcement it makes is consumed or withdrawn by the
// time it returns — after a normal run, after a cell error (a planted
// instance fails verification, so later cells never start) and after a
// cancel mid-grid — so it leaves outstanding demand and idle copies as it
// found them.
func TestRunGridStreamSettlesDemand(t *testing.T) {
	defer func(oldP int, oldC *rcache.Store, oldPool *workloads.Pool) {
		Parallelism, Cache, InstancePool = oldP, oldC, oldPool
	}(Parallelism, Cache, InstancePool)
	Cache = nil
	g := testGrid(1, 2) // 4 cells of one spec
	spec := g.Cells()[0].Spec

	for _, p := range []int{1, 4} {
		Parallelism = p
		InstancePool = workloads.NewPool(workloads.DefaultPoolBudget)
		if _, err := RunGridStream(context.Background(), g, false, nil, nil); err != nil {
			t.Fatal(err)
		}
		if d, idle := poolDemand(t); d != 0 || idle != 0 {
			t.Errorf("parallel %d, normal run: demand/idle = %v/%v, want 0/0", p, d, idle)
		}

		// The plant is wanted by the test's own announcement, which the
		// grid's first cell consumes in place of its own.
		InstancePool.Expect(spec)
		bad := workloads.Build(spec)
		bad.Verify = func() error { return errors.New("planted verification failure") }
		InstancePool.Release(bad)
		if _, err := RunGridStream(context.Background(), g, false, nil, nil); err == nil {
			t.Fatalf("parallel %d: grid over a planted failing instance succeeded", p)
		}
		if d, idle := poolDemand(t); d != 1 || idle > 1 {
			t.Errorf("parallel %d, cell error: demand/idle = %v/%v, want the test's 1 announcement and at most 1 copy", p, d, idle)
		}
		InstancePool.Withdraw(spec)
		if d, idle := poolDemand(t); d != 0 || idle != 0 {
			t.Errorf("parallel %d, after the cell error: demand/idle = %v/%v, want 0/0", p, d, idle)
		}

		// Cancelled once the first cell is done: serially the second cell
		// sees it at claim time; in parallel every cell may already be
		// claimed, so the grid may finish.
		ctx, cancel := context.WithCancel(context.Background())
		_, err := RunGridStream(ctx, g, false, nil, func(done, total int) { cancel() })
		cancel()
		if (p == 1 || err != nil) && !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel %d: cancelled grid returned %v", p, err)
		}
		if d, idle := poolDemand(t); d != 0 || idle != 0 {
			t.Errorf("parallel %d, cancelled mid-grid: demand/idle = %v/%v, want 0/0", p, d, idle)
		}
	}
}

// TestServiceGridLeavesNoIdleInstance: a sweepd-shaped job — one fresh
// spec's pdf and ws cells, the spec never asked for again — leaves no
// instance idle in the pool, cold or replayed warm from the cell cache, at
// serial and parallel fan-out.
func TestServiceGridLeavesNoIdleInstance(t *testing.T) {
	defer func(oldP int, oldC *rcache.Store, oldPool *workloads.Pool) {
		Parallelism, Cache, InstancePool = oldP, oldC, oldPool
	}(Parallelism, Cache, InstancePool)
	Cache = rcache.NewMemory()
	for i, p := range []int{1, 2} {
		Parallelism = p
		InstancePool = workloads.NewPool(workloads.DefaultPoolBudget)
		d := &grid.Def{Workload: []string{"hashjoin"}, N: []int{8192}, Grain: []int{1024}, Cores: []int{2}}
		g, err := d.Resolve(Seed + uint64(i)) // a data seed of its own
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			if _, err := RunGrid(g, false); err != nil {
				t.Fatal(err)
			}
			if d, idle := poolDemand(t); d != 0 || idle != 0 {
				t.Errorf("parallel %d, %s: demand/idle = %v/%v, want 0/0", p, pass, d, idle)
			}
		}
	}
}
