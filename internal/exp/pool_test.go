package exp

import (
	"testing"

	"repro/internal/rcache"
	"repro/internal/testutil"
	"repro/internal/workloads"
)

// TestPooledMatchesUnpooled asserts the instance pool's core guarantee:
// experiment output is byte-identical with the pool on or off, at serial and
// parallel fan-out — a reset instance is indistinguishable from a fresh
// build. fig1-misses exercises the dense shared-spec grid (14 cells, one
// spec: the pool's best case), t4-multiprog the bespoke two-arm path that
// acquires two instances per arm and time-slices stateful engines.
func TestPooledMatchesUnpooled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	defer func(oldP int, oldC *rcache.Store, oldPool *workloads.Pool) {
		Parallelism, Cache, InstancePool = oldP, oldC, oldPool
	}(Parallelism, Cache, InstancePool)
	Cache = nil // no cell memoization: every cell exercises the pool

	for _, id := range []string{"fig1-misses", "t4-multiprog"} {
		InstancePool = nil
		Parallelism = 1
		unpooled := renderAll(t, id)

		for _, p := range []int{1, 8} {
			Parallelism = p
			InstancePool = workloads.NewPool(workloads.DefaultPoolBudget)
			if got := renderAll(t, id); got != unpooled {
				t.Errorf("%s: pooled output at Parallelism=%d differs from unpooled:\n--- unpooled ---\n%s\n--- pooled ---\n%s",
					id, p, unpooled, got)
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
		}
	}
}
