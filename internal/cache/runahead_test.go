package cache

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
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

// act is the load (or, for write, the store) of line tag in h's geometry.
func act(h *Hierarchy, tag uint64, write bool) trace.Action { return actPost(h, tag, write, 0) }

// actPost is act followed by post compute cycles, which fold into its word.
func actPost(h *Hierarchy, tag uint64, write bool, post int) trace.Action {
	var r trace.Recorder
	if addr := mem.Addr(tag << h.LineShift()); write {
		r.Store(addr)
	} else {
		r.Load(addr)
	}
	r.Compute(post)
	return r.Actions()[0]
}

// compute is a Compute action of n cycles.
func compute(n int) trace.Action {
	var r trace.Recorder
	r.Compute(n)
	return r.Actions()[0]
}

// runAhead runs one access as action index ip at cycle at through RunAhead
// and fails unless it ran ahead as a hit.
func runAhead(t *testing.T, h *Hierarchy, core int, tag uint64, write bool, at int64, ip int) {
	t.Helper()
	acts := make([]trace.Action, ip+1)
	acts[ip] = act(h, tag, write)
	if next, _, _, hits, _ := h.RunAhead(core, acts, ip, at, math.MaxInt64, math.MaxInt64); next != ip+1 || hits != 1 {
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
	if ip, _, _, hits, _ := got.RunAhead(1, []trace.Action{act(got, a, true)}, 0, 601, math.MaxInt64, math.MaxInt64); ip != 0 || hits != 0 {
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

// TestRunAheadStops runs one action list per stop condition through
// RunAhead and checks where it stopped, the cycle, instructions, hits and
// split flag it returned, and — after commit — every line, clock and
// counter against the same actions issued one by one through AccessLine,
// each followed by its post (a split word's access but not its post). Lines 0x10 and 0x11
// (sets 0 and 1 of the 4-set L1) start resident in core 0's L1, and 0x11
// exclusively.
func TestRunAheadStops(t *testing.T) {
	const a, b = 0x10, 0x11
	const start = 1000
	setup := func(shared bool) *Hierarchy {
		h := New(smallParams(2))
		h.AccessLine(0, a, false, 0)
		h.AccessLine(0, b, true, 300)
		if shared {
			h.AccessLine(1, b, false, 600)
		}
		return h
	}
	h := setup(false)
	rd, wr := act(h, a, false), act(h, b, true)
	repeat := func(x trace.Action, n int) []trace.Action {
		out := make([]trace.Action, n)
		for i := range out {
			out[i] = x
		}
		return out
	}
	// Lines 0x20 and 0x30 share set 0 with a: reading both after a pushes
	// a out of the set's two-entry hint although it stays resident.
	unhinted := []trace.Action{rd, act(h, 0x20, false), act(h, 0x30, false)}

	cases := []struct {
		name       string
		shared     bool
		pre        []trace.Action // issued through AccessLine before RunAhead
		acts       []trace.Action
		end, limit int64
		ip         int
		done       int64
		instrs     int64
		hits       int64
		split      bool
	}{
		{name: "exhausted", acts: []trace.Action{rd, wr, rd}, end: math.MaxInt64, limit: math.MaxInt64,
			ip: 3, done: start + 3, instrs: 3, hits: 3},
		{name: "full-log", acts: repeat(rd, logCap+6), end: math.MaxInt64, limit: math.MaxInt64,
			ip: logCap, done: start + logCap, instrs: logCap, hits: logCap},
		{name: "end", acts: []trace.Action{rd, compute(4), rd, rd, compute(2)}, end: start + 6, limit: math.MaxInt64,
			ip: 3, done: start + 6, instrs: 6, hits: 2},
		{name: "limit", acts: []trace.Action{rd, compute(10), rd}, end: math.MaxInt64, limit: start + 5,
			ip: 2, done: start + 11, instrs: 11, hits: 1},
		{name: "hint-miss", pre: unhinted, acts: []trace.Action{rd, wr}, end: math.MaxInt64, limit: math.MaxInt64,
			ip: 0, done: start, instrs: 0, hits: 0},
		{name: "cold-miss", acts: []trace.Action{wr, act(h, 0x40, false), rd}, end: math.MaxInt64, limit: math.MaxInt64,
			ip: 1, done: start + 1, instrs: 1, hits: 1},
		{name: "write-shared", shared: true, acts: []trace.Action{rd, act(h, b, false), wr, rd}, end: math.MaxInt64, limit: math.MaxInt64,
			ip: 2, done: start + 2, instrs: 2, hits: 2},
		{name: "computes", acts: []trace.Action{compute(3), rd, compute(5), wr, wr, compute(1)}, end: math.MaxInt64, limit: math.MaxInt64,
			ip: 6, done: start + 12, instrs: 12, hits: 3},
		{name: "posts", acts: []trace.Action{actPost(h, a, false, 4), actPost(h, b, true, 2), rd}, end: math.MaxInt64, limit: math.MaxInt64,
			ip: 3, done: start + 9, instrs: 9, hits: 3},
		// A post runs whenever its hit completes before limit, past end too.
		{name: "post-past-end", acts: []trace.Action{actPost(h, a, false, 10), rd}, end: start + 5, limit: math.MaxInt64,
			ip: 1, done: start + 11, instrs: 11, hits: 1},
		{name: "post-past-limit", acts: []trace.Action{actPost(h, a, false, 10), rd}, end: math.MaxInt64, limit: start + 5,
			ip: 1, done: start + 11, instrs: 11, hits: 1},
		// The second hit completes at limit: its post is left for the
		// caller, and RunAhead stops on its word.
		{name: "split", acts: []trace.Action{rd, actPost(h, b, true, 10), rd}, end: math.MaxInt64, limit: start + 2,
			ip: 1, done: start + 2, instrs: 2, hits: 2, split: true},
	}
	for _, tc := range cases {
		got, want := setup(tc.shared), setup(tc.shared)
		for i, x := range tc.pre {
			at := int64(700 + i)
			got.AccessLine(0, x.Line(got.LineShift()), x.Kind() == trace.Store, at)
			want.AccessLine(0, x.Line(want.LineShift()), x.Kind() == trace.Store, at)
		}
		ip, done, instrs, hits, split := got.RunAhead(0, tc.acts, 0, start, tc.end, tc.limit)
		if ip != tc.ip || done != tc.done || instrs != tc.instrs || hits != tc.hits || split != tc.split {
			t.Errorf("%s: RunAhead = ip %d, done %d, %d instrs, %d hits, split %v; want ip %d, done %d, %d instrs, %d hits, split %v",
				tc.name, ip, done, instrs, hits, split, tc.ip, tc.done, tc.instrs, tc.hits, tc.split)
			continue
		}
		if n := got.logs[0].n; int64(n) != hits || (got.logged&1 != 0) != (hits > 0) {
			t.Errorf("%s: log holds %d hits (logged mask %b), want %d", tc.name, n, got.logged, hits)
		}
		got.CommitAll()
		at := int64(start)
		for _, x := range tc.acts[:ip] {
			if x.Kind() == trace.Compute {
				at += x.N()
				continue
			}
			at = want.AccessLine(0, x.Line(want.LineShift()), x.Kind() == trace.Store, at) + x.Post()
		}
		if split {
			x := tc.acts[ip]
			at = want.AccessLine(0, x.Line(want.LineShift()), x.Kind() == trace.Store, at)
		}
		if at != done {
			t.Errorf("%s: run-ahead reaches cycle %d, one by one %d", tc.name, done, at)
		}
		sameState(t, tc.name, got, want)
	}
}

// TestRunAheadSecondHintSwapsFirst: a write to a shared line that the
// set's hint holds in its second entry stops the run-ahead but still moves
// that way to the front, as an exact-order access's probe does.
func TestRunAheadSecondHintSwapsFirst(t *testing.T) {
	const a, c = 0x10, 0x20 // both in L1 set 0
	h := New(smallParams(2))
	h.AccessLine(0, a, false, 0)
	h.AccessLine(1, a, false, 300)
	h.AccessLine(0, c, false, 600)
	l1 := h.L1(0)
	wayA := l1.scan(a)
	if l1.pred[0][1] != int32(wayA) {
		t.Fatalf("setup: hint %v, want way %d second", l1.pred[0], wayA)
	}
	if ip, _, _, hits, _ := h.RunAhead(0, []trace.Action{act(h, a, true)}, 0, 1000, math.MaxInt64, math.MaxInt64); ip != 0 || hits != 0 {
		t.Fatalf("write to a shared line ran ahead: ip %d, %d hits", ip, hits)
	}
	if l1.pred[0][0] != int32(wayA) {
		t.Fatalf("hint %v, want way %d first", l1.pred[0], wayA)
	}
}
