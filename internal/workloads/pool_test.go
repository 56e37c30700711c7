package workloads

import (
	"sync"
	"testing"

	"repro/internal/testutil"
)

// --- Instance lifecycle ------------------------------------------------------

// TestEveryKernelVerifiesAfterRunAndAfterResetRerun is the table-driven
// guarantee that each workload kernel's Verify actually executes — and
// passes — after a real simulated run, and again after Reset re-arms the
// instance for a second run under a different scheduler. runOn fails the
// test if Verify errors, the schedule is illegal, or tasks are lost.
func TestEveryKernelVerifiesAfterRunAndAfterResetRerun(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			in := Build(smallSpec(name))
			if !in.Armed() {
				t.Fatal("fresh instance not armed")
			}
			runOn(t, in, 2, "pdf")
			if in.Armed() {
				t.Fatal("instance still armed after a run")
			}
			in.Reset()
			if !in.Armed() {
				t.Fatal("Reset did not re-arm the instance")
			}
			runOn(t, in, 4, "ws")
		})
	}
}

func TestBeginRunPanicsOnDirtyRerun(t *testing.T) {
	in := Build(smallSpec("mergesort"))
	in.BeginRun()
	defer func() {
		if recover() == nil {
			t.Fatal("second BeginRun without Reset did not panic")
		}
	}()
	in.BeginRun()
}

func TestResetOnArmedInstanceIsNoop(t *testing.T) {
	in := Build(smallSpec("scan"))
	in.Reset() // must not panic or copy
	if !in.Armed() {
		t.Fatal("armed instance lost its armed state on Reset")
	}
}

// --- Pool --------------------------------------------------------------------

// wpool reads the pool's unlabeled wpool_<name> sample through the
// registry, as `sweep -stats` and /metrics render it.
func wpool(t *testing.T, p *Pool, name string) float64 {
	t.Helper()
	return testutil.Series(t, p.RegisterMetrics, "wpool_"+name)[""]
}

// TestPoolReusesReleasedInstance uses matmul deliberately: its leaf tasks
// accumulate into C, so if Acquire handed back a released instance without
// restoring the build-time bytes, the second run would double C and fail
// Verify inside runOn.
func TestPoolReusesReleasedInstance(t *testing.T) {
	p := NewPool(1 << 30)
	spec := smallSpec("matmul")

	in1 := p.Acquire(spec, nil)
	runOn(t, in1, 2, "pdf")
	p.Release(in1)

	in2 := p.Acquire(spec, nil)
	if in2 != in1 {
		t.Fatal("Acquire did not reuse the released instance")
	}
	if !in2.Armed() {
		t.Fatal("pooled instance not re-armed on Acquire")
	}
	runOn(t, in2, 2, "ws")

	hits, misses, cont := wpool(t, p, "hits_total"), wpool(t, p, "misses_total"), wpool(t, p, "contended_total")
	if hits != 1 || misses != 1 || cont != 0 {
		t.Fatalf("hits/misses/contended = %v/%v/%v, want 1/1/0", hits, misses, cont)
	}
}

func TestPoolContendedAcquireBuildsFresh(t *testing.T) {
	p := NewPool(1 << 30)
	spec := smallSpec("scan")
	in1 := p.Acquire(spec, nil)
	in2 := p.Acquire(spec, nil) // in1 still checked out
	if in1 == in2 {
		t.Fatal("contended Acquire returned the checked-out instance")
	}
	if cont, misses := wpool(t, p, "contended_total"), wpool(t, p, "misses_total"); cont != 1 || misses != 2 {
		t.Fatalf("misses/contended = %v/%v, want 2 misses of which 1 contended", misses, cont)
	}
	p.Release(in1)
	p.Release(in2)
	if idle := wpool(t, p, "idle_instances"); idle != 2 {
		t.Fatalf("idle = %v, want both copies pooled", idle)
	}
}

// TestPoolDiscardBalancesCheckedOutCount pins the verify-failure path: a
// discarded instance must not leave the spec permanently "checked out", or
// every later build of it would be misreported as contended.
func TestPoolDiscardBalancesCheckedOutCount(t *testing.T) {
	p := NewPool(1 << 30)
	spec := smallSpec("scan")
	in := p.Acquire(spec, nil)
	p.Discard(in)
	in2 := p.Acquire(spec, nil)
	if in2 == in {
		t.Fatal("discarded instance came back from the pool")
	}
	if cont := wpool(t, p, "contended_total"); cont != 0 {
		t.Fatalf("contended = %v, want no phantom contention after Discard", cont)
	}
	p.Release(in2)
}

func TestPoolBudgetEvictsLeastRecentlyReleased(t *testing.T) {
	specA := smallSpec("mergesort")
	specB := smallSpec("quicksort")
	inA, inB := Build(specA), Build(specB)
	p := NewPool(instanceCost(inA) + instanceCost(inB) - 1)
	p.Release(inA)
	p.Release(inB) // over budget: evicts A, the older release
	if ev, idle := wpool(t, p, "evictions_total"), wpool(t, p, "idle_instances"); ev != 1 || idle != 1 {
		t.Fatalf("evictions/idle = %v/%v, want exactly one eviction leaving one idle", ev, idle)
	}
	if got := p.Acquire(specB, nil); got != inB {
		t.Fatal("survivor should have been the most recently released (B)")
	}
	if got := p.Acquire(specA, nil); got == inA {
		t.Fatal("evicted instance came back from the pool")
	}
}

func TestPoolDropsOversizeInstance(t *testing.T) {
	p := NewPool(16) // smaller than any instance
	in := Build(smallSpec("scan"))
	p.Release(in)
	dropped, idle, bytes := wpool(t, p, "dropped_total"), wpool(t, p, "idle_instances"), wpool(t, p, "idle_bytes")
	if dropped != 1 || idle != 0 || bytes != 0 {
		t.Fatalf("dropped/idle/idle bytes = %v/%v/%v, want the oversize instance dropped, none idle", dropped, idle, bytes)
	}
}

func TestNilPoolBuildsFresh(t *testing.T) {
	var p *Pool
	spec := smallSpec("histogram")
	in1 := p.Acquire(spec, nil)
	p.Release(in1)
	in2 := p.Acquire(spec, nil)
	if in1 == in2 {
		t.Fatal("nil pool must not retain instances")
	}
}

// TestPoolConcurrentAcquireRelease exercises the pool's locking under the
// race detector (the CI race job): concurrent acquirers must get exclusive
// instances and the counters must balance.
func TestPoolConcurrentAcquireRelease(t *testing.T) {
	p := NewPool(1 << 30)
	spec := Spec{Name: "scan", N: 256, Grain: 64, Seed: 9}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				in := p.Acquire(spec, nil)
				in.BeginRun() // mark dirty so the next Acquire must Reset
				p.Release(in)
			}
		}()
	}
	wg.Wait()
	if got := wpool(t, p, "hits_total") + wpool(t, p, "misses_total"); got != 160 {
		t.Fatalf("hits+misses = %v, want 160", got)
	}
	if idle := wpool(t, p, "idle_instances"); idle < 1 {
		t.Fatalf("idle = %v, want at least one idle instance after drain", idle)
	}
}
