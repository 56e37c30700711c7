package workloads

import (
	"sync"
	"testing"
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

	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Contended != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
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
	if st := p.Stats(); st.Contended != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses of which 1 contended", st)
	}
	p.Release(in1)
	p.Release(in2)
	if st := p.Stats(); st.Idle != 2 {
		t.Fatalf("idle = %d, want both copies pooled", st.Idle)
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
	if st := p.Stats(); st.Contended != 0 {
		t.Fatalf("stats = %+v, want no phantom contention after Discard", st)
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
	st := p.Stats()
	if st.Evictions != 1 || st.Idle != 1 {
		t.Fatalf("stats = %+v, want exactly one eviction leaving one idle", st)
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
	st := p.Stats()
	if st.Dropped != 1 || st.Idle != 0 || st.IdleBytes != 0 {
		t.Fatalf("stats = %+v, want the oversize instance dropped, none idle", st)
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
	if st := p.Stats(); st != (PoolStats{}) {
		t.Fatalf("nil pool stats = %+v, want zero", st)
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
	st := p.Stats()
	if got := st.Hits + st.Misses; got != 160 {
		t.Fatalf("hits+misses = %d, want 160", got)
	}
	if st.Idle < 1 {
		t.Fatalf("stats = %+v, want at least one idle instance after drain", st)
	}
}
