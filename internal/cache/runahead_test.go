package cache

import (
	"reflect"
	"testing"
)

// sameState fails the test unless two hierarchies agree on every line's
// key and metadata, every LRU clock and every counter. Lookup hints may
// differ: they never change results (TestHintNeverChangesResults).
func sameState(t *testing.T, label string, got, want *Hierarchy) {
	t.Helper()
	caches := func(h *Hierarchy) []*SetAssoc { return append(append([]*SetAssoc{}, h.l1...), h.l2) }
	for i, g := range caches(got) {
		w := caches(want)[i]
		if !reflect.DeepEqual(g.keys, w.keys) || !reflect.DeepEqual(g.lines, w.lines) || g.clock != w.clock || g.Stats != w.Stats {
			t.Fatalf("%s: %s diverged\ngot  %+v clock %d\nwant %+v clock %d", label, g.Name, g.Stats, g.clock, w.Stats, w.clock)
		}
	}
	if *got.bus != *want.bus {
		t.Fatalf("%s: off-chip state diverged\ngot  %+v\nwant %+v", label, *got.bus, *want.bus)
	}
	if err := got.CheckInclusion(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

func runAhead(t *testing.T, h *Hierarchy, core int, tag uint64, write bool, at int64, ip int) {
	t.Helper()
	if _, ok := h.RunAheadHit(core, tag, write, at, ip); !ok {
		t.Fatalf("run-ahead hit refused: core %d tag %x write %v", core, tag, write)
	}
}

func wantRewind(t *testing.T, h *Hierarchy, core int, at int64, ip, undone int) {
	t.Helper()
	if h.Rewound() != 1<<uint(core) {
		t.Fatalf("rewound mask %b, want core %d only", h.Rewound(), core)
	}
	if gotAt, gotIP, gotUndone := h.TakeRewind(core); gotAt != at || gotIP != ip || gotUndone != undone {
		t.Fatalf("rewind to (cycle %d, ip %d) undoing %d, want (%d, %d) undoing %d", gotAt, gotIP, gotUndone, at, ip, undone)
	}
	if h.Rewound() != 0 {
		t.Fatal("TakeRewind left the core marked")
	}
}

// TestRunAheadDowngradeRollsBackWritesOnly: a downgrade commutes with the
// owner's run-ahead reads of the line but not its writes. Core 0's read at
// cycle 601 downgrades core 1's line; core 1's read there comes after it in
// stepwise order (same cycle, higher core id) yet survives, and its write
// at 602 is undone with everything after it.
func TestRunAheadDowngradeRollsBackWritesOnly(t *testing.T) {
	const a, b = 0x1000 >> 6, 0x2040 >> 6
	setup := func() *Hierarchy {
		h := New(smallParams(2))
		h.AccessLine(1, a, true, 0)
		h.AccessLine(1, b, false, 300)
		return h
	}

	got := setup()
	runAhead(t, got, 1, a, false, 600, 0)
	runAhead(t, got, 1, a, false, 601, 1)
	runAhead(t, got, 1, a, true, 602, 2)
	runAhead(t, got, 1, b, false, 603, 3)
	got.AccessLine(0, a, false, 601)
	wantRewind(t, got, 1, 602, 2, 2)
	got.Commit(1)
	d := got.AccessLine(1, a, true, 602)
	got.AccessLine(1, b, false, d)

	want := setup()
	want.AccessLine(1, a, false, 600)
	want.AccessLine(0, a, false, 601)
	want.AccessLine(1, a, false, 601)
	d = want.AccessLine(1, a, true, 602)
	want.AccessLine(1, b, false, d)
	sameState(t, "downgrade", got, want)
}

// TestRunAheadInvalidationKeepsEarlierTie: an invalidating write by core 1
// at cycle 601 ties with core 0's run-ahead read there; core 0 comes first
// in stepwise order, so only its later read is undone.
func TestRunAheadInvalidationKeepsEarlierTie(t *testing.T) {
	const a = 0x1000 >> 6
	setup := func() *Hierarchy {
		h := New(smallParams(2))
		h.AccessLine(0, a, false, 0)
		h.AccessLine(1, a, false, 300)
		return h
	}

	got := setup()
	runAhead(t, got, 0, a, false, 600, 0)
	runAhead(t, got, 0, a, false, 601, 1)
	runAhead(t, got, 0, a, false, 602, 2)
	if _, ok := got.RunAheadHit(1, a, true, 601, 0); ok {
		t.Fatal("run-ahead write to a shared line accepted")
	}
	got.AccessLine(1, a, true, 601)
	wantRewind(t, got, 0, 602, 2, 1)
	got.CommitAll()
	got.AccessLine(0, a, false, 602)

	want := setup()
	want.AccessLine(0, a, false, 600)
	want.AccessLine(0, a, false, 601)
	want.AccessLine(1, a, true, 601)
	want.AccessLine(0, a, false, 602)
	sameState(t, "invalidation", got, want)
}
