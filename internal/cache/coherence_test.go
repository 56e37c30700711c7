package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/xprng"
)

// TestReadAfterRemoteWriteSeesDowngrade exercises the dirty-forwarding path:
// core 0 writes (dirty exclusive), core 1 reads — core 0's copy must
// downgrade to shared and the L2 must absorb the dirty data.
func TestReadAfterRemoteWriteSeesDowngrade(t *testing.T) {
	h := New(smallParams(2))
	now := h.AccessLine(0, 0, true, 0)
	now = h.AccessLine(1, 0, false, now)
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
	// Core 0 must still HIT on a read (downgrade, not invalidation).
	missesBefore := h.L1(0).Stats.Misses
	now = h.AccessLine(0, 0, false, now)
	if h.L1(0).Stats.Misses != missesBefore {
		t.Fatal("read downgrade invalidated the owner's copy")
	}
	// But a WRITE by core 0 now needs an upgrade (line is shared).
	h.AccessLine(0, 0, true, now)
	if h.L1(0).Stats.Upgrades == 0 {
		t.Fatal("write on downgraded line did not count an upgrade")
	}
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}

// TestWritePingPong alternates writes between two cores: every write after
// the first from a different core must invalidate the other copy, so both
// cores keep missing or upgrading — the classic coherence ping-pong.
func TestWritePingPong(t *testing.T) {
	h := New(smallParams(2))
	now := int64(0)
	for i := 0; i < 10; i++ {
		now = h.AccessLine(i%2, 0, true, now)
	}
	inv := h.L1(0).Stats.Invalidations + h.L1(1).Stats.Invalidations
	if inv < 8 {
		t.Fatalf("ping-pong produced only %d invalidations, want >= 8", inv)
	}
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}

// TestSilentEvictionUpdatesDirectory: when an L1 silently evicts a clean
// shared line, the directory bit must clear so later writers do not send
// needless invalidations (and CheckInclusion stays exact).
func TestSilentEvictionUpdatesDirectory(t *testing.T) {
	h := New(smallParams(2))
	now := h.AccessLine(0, 0, false, 0)
	// Thrash core 0's L1 set 0 (4-way, stride 4 lines) to evict line 0.
	for i := 1; i <= 4; i++ {
		now = h.AccessLine(0, uint64(i*4), false, now)
	}
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}

// TestDirtyL1VictimFoldsIntoL2: a dirty L1 eviction must mark the L2 line
// dirty so the data survives and eventually goes off-chip exactly once.
func TestDirtyL1VictimFoldsIntoL2(t *testing.T) {
	p := smallParams(1)
	h := New(p)
	now := h.AccessLine(0, 0, true, 0) // dirty line 0 in L1
	// Evict it from L1 (clean L2 copy becomes dirty via writeback).
	for i := 1; i <= 4; i++ {
		now = h.AccessLine(0, uint64(i*4), false, now)
	}
	if h.L1(0).Stats.Writebacks == 0 {
		t.Fatal("dirty L1 eviction recorded no writeback")
	}
	// Now force the L2 line out: its dirty state must reach the bus.
	wbBefore := h.L2().Stats.Writebacks
	for i := 1; i <= 9; i++ {
		now = h.AccessLine(0, uint64(i*16), false, now) // L2 set 0 conflicts
	}
	if h.L2().Stats.Writebacks == wbBefore {
		t.Fatal("folded-dirty L2 line evicted without off-chip writeback")
	}
}

// TestCheckInclusionCatchesCorruption breaks each invariant the L1 fast
// paths rely on by hand — a back-pointer naming the wrong L2 way, and an
// exclusive copy beside another sharer — and expects CheckInclusion to
// report it.
func TestCheckInclusionCatchesCorruption(t *testing.T) {
	const a, b = 0x10, 0x11
	setup := func() *Hierarchy {
		h := New(smallParams(2))
		now := h.AccessLine(0, a, false, 0)
		now = h.AccessLine(1, a, false, now)
		h.AccessLine(0, b, true, now)
		if err := h.CheckInclusion(); err != nil {
			t.Fatalf("clean hierarchy: %v", err)
		}
		return h
	}

	h := setup()
	l1 := h.L1(0)
	i := l1.scan(b)
	l1.lines[i].l2way = int32(h.l2.scan(a))
	if h.CheckInclusion() == nil {
		t.Error("back-pointer to the wrong L2 way passed")
	}

	h = setup()
	l1 = h.L1(0)
	l1.lines[l1.scan(a)].excl = true
	if h.CheckInclusion() == nil {
		t.Error("exclusive copy beside another sharer passed")
	}
}

// TestCoherencePropertyAllCores drives random traffic on up to 8 cores with
// a tiny shared region to force constant coherence activity; inclusion and
// directory exactness must hold at every step boundary.
func TestCoherencePropertyAllCores(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xprng.New(seed)
		cores := rng.Intn(7) + 2
		h := New(smallParams(cores))
		now := int64(0)
		for i := 0; i < 3000; i++ {
			core := rng.Intn(cores)
			tag := uint64(rng.Intn(8)) // 8 lines: heavy sharing
			write := rng.Intn(2) == 0
			now = h.AccessLine(core, tag, write, now)
		}
		return h.CheckInclusion() == nil
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAccessCompletionMonotonic: a core's accesses must complete at
// non-decreasing times when issued at non-decreasing times.
func TestAccessCompletionMonotonic(t *testing.T) {
	h := New(smallParams(1))
	rng := xprng.New(4)
	now := int64(0)
	for i := 0; i < 2000; i++ {
		done := h.AccessLine(0, uint64(rng.Intn(256)), rng.Intn(4) == 0, now)
		if done < now {
			t.Fatalf("access completed at %d, issued at %d", done, now)
		}
		now = done
	}
}
