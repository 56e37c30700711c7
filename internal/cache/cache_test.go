package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/xprng"
)

func smallParams(cores int) Params {
	return Params{
		Cores:    cores,
		LineSize: 64,
		L1Size:   1 << 10, // 1 KiB, 4-way: 4 sets
		L1Ways:   4,
		L2Size:   1 << 13, // 8 KiB, 8-way: 16 sets
		L2Ways:   8,
		BusBPC:   1,
		Lat:      Latencies{L1: 1, L2: 15, Mem: 200},
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := New(smallParams(1))
	t0 := h.AccessLine(0, 0x40, false, 0)
	if t0 <= 200 {
		t.Fatalf("cold miss finished in %d cycles, should include memory latency", t0)
	}
	if h.L2().Stats.Misses != 1 || h.L1(0).Stats.Misses != 1 {
		t.Fatalf("miss counters: l1=%+v l2=%+v", h.L1(0).Stats, h.L2().Stats)
	}
	t1 := h.AccessLine(0, 0x40, false, t0)
	if t1 != t0+1 {
		t.Fatalf("same-line hit took %d cycles, want 1", t1-t0)
	}
	if h.L1(0).Stats.Hits != 1 {
		t.Fatalf("hit not counted: %+v", h.L1(0).Stats)
	}
}

func TestL2HitAfterL1Evict(t *testing.T) {
	h := New(smallParams(1))
	// Touch 5 lines mapping to the same L1 set (4-way): line 0 falls out of
	// L1 but stays in L2 (16 sets, different sets or same set 8-way).
	// L1 has 4 sets, so a stride of 4 lines keeps the same L1 set.
	for i := 0; i < 5; i++ {
		h.AccessLine(0, uint64(i*4), false, int64(i*1000))
	}
	misses := h.L2().Stats.Misses
	h.AccessLine(0, 0, false, 100000) // line 0: L1 miss, L2 hit
	if h.L2().Stats.Misses != misses {
		t.Fatalf("expected L2 hit, got miss (l2=%+v)", h.L2().Stats)
	}
	if h.L2().Stats.Hits == 0 {
		t.Fatal("L2 hit not counted")
	}
}

func TestLRUWithinSet(t *testing.T) {
	h := New(smallParams(1))
	// Fill one L1 set (4 ways) with lines A,B,C,D; touch A again; insert E.
	// Victim must be B (LRU), so A must still hit.
	tags := []uint64{0, 4, 8, 12}
	now := int64(0)
	for _, tag := range tags {
		now = h.AccessLine(0, tag, false, now)
	}
	now = h.AccessLine(0, tags[0], false, now) // touch A
	now = h.AccessLine(0, 16, false, now)      // insert E, evicts B
	missesBefore := h.L1(0).Stats.Misses
	now = h.AccessLine(0, tags[0], false, now) // A should hit
	if h.L1(0).Stats.Misses != missesBefore {
		t.Fatal("LRU evicted the recently-touched line")
	}
	h.AccessLine(0, tags[1], false, now) // B should miss
	if h.L1(0).Stats.Misses != missesBefore+1 {
		t.Fatal("expected B to have been the LRU victim")
	}
}

func TestWriteInvalidatesOtherCore(t *testing.T) {
	h := New(smallParams(2))
	now := h.AccessLine(0, 0, false, 0) // core 0 reads
	now = h.AccessLine(1, 0, false, now)
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
	// Core 1 writes: core 0's copy must be invalidated.
	now = h.AccessLine(1, 0, true, now)
	missesBefore := h.L1(0).Stats.Misses
	h.AccessLine(0, 0, false, now)
	if h.L1(0).Stats.Misses != missesBefore+1 {
		t.Fatal("core 0 still hit after core 1's write — no invalidation")
	}
	if h.L1(0).Stats.Invalidations == 0 {
		t.Fatal("invalidation not counted")
	}
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeOnSharedWrite(t *testing.T) {
	h := New(smallParams(2))
	now := h.AccessLine(0, 0, false, 0)
	now = h.AccessLine(1, 0, false, now)
	// Core 0 writes its shared copy: upgrade, not a miss.
	missesBefore := h.L1(0).Stats.Misses
	h.AccessLine(0, 0, true, now)
	if h.L1(0).Stats.Misses != missesBefore {
		t.Fatal("shared write counted as a miss")
	}
	if h.L1(0).Stats.Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", h.L1(0).Stats.Upgrades)
	}
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyWritebackGoesOffchip(t *testing.T) {
	p := smallParams(1)
	h := New(p)
	// Write a line, then stream enough lines through to evict it from L2.
	h.AccessLine(0, 0, true, 0)
	now := int64(1000)
	nLines := int(p.L2Size)/p.LineSize + int(p.L2Size)/p.LineSize/2
	for i := 1; i <= nLines; i++ {
		now = h.AccessLine(0, uint64(i), false, now)
	}
	if h.L2().Stats.Writebacks == 0 {
		t.Fatal("dirty line eviction produced no writeback")
	}
	// Off-chip bytes must include both fills and the writeback.
	wantMin := int64(nLines+1)*64 + 64
	if h.Bus().Bytes < wantMin {
		t.Fatalf("offchip bytes %d < %d", h.Bus().Bytes, wantMin)
	}
}

func TestInclusionBackInvalidation(t *testing.T) {
	p := smallParams(1)
	h := New(p)
	// Line 0 sits in L1 and is re-touched every round so L1's LRU never
	// evicts it. The conflicting lines (stride 16 lines = L2 set 0) overflow
	// the 8-way L2 set; L2's LRU evicts line 0 (stale in L2, since L1 hits
	// don't refresh L2), and inclusion must drop the fresh L1 copy.
	now := h.AccessLine(0, 0, false, 0)
	for i := 1; i <= 9; i++ {
		now = h.AccessLine(0, uint64(i*16), false, now)
		now = h.AccessLine(0, 0, false, now)
	}
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
	if h.L1(0).Stats.Invalidations == 0 {
		t.Fatal("L2 eviction did not back-invalidate L1")
	}
}

func TestBusSerializesBandwidth(t *testing.T) {
	b := NewBus(1) // 1 byte/cycle: 64B line takes 64 cycles
	d1 := b.Transfer(0, 64)
	if d1 != 64 {
		t.Fatalf("first transfer done at %d, want 64", d1)
	}
	d2 := b.Transfer(0, 64)
	if d2 != 128 {
		t.Fatalf("queued transfer done at %d, want 128", d2)
	}
	if b.QueueCycles != 64 {
		t.Fatalf("queue cycles %d, want 64", b.QueueCycles)
	}
	if b.Bytes != 128 || b.Transfers != 2 {
		t.Fatalf("bus accounting: %+v", *b)
	}
}

// TestBusExactCeiling pins the transfer-duration rounding: an exact
// multiple of the bandwidth must not be overcharged a cycle (the old
// float64 fudge `+ 0.999999` could round 64/3.2 = 20 up to 21), and
// fractional quotients must still round up.
func TestBusExactCeiling(t *testing.T) {
	cases := []struct {
		bpc   float64
		bytes int
		want  int64
	}{
		{3.2, 64, 20},          // exact multiple of a fractional bandwidth
		{6.4, 64, 10},          // exact multiple
		{1.6, 64, 40},          // exact multiple
		{4, 64, 16},            // integer bandwidth, exact
		{12, 64, 6},            // 5.33... rounds up
		{6, 64, 11},            // 10.66... rounds up
		{3.2, 65, 21},          // 20.3125 rounds up
		{128, 64, 1},           // sub-cycle transfer still occupies one cycle
		{0.5, 64, 128},         // sub-byte-per-cycle bandwidth
		{1e-7, 64, 64_000_000}, // below micro-unit resolution: clamped, no divide-by-zero
	}
	for _, c := range cases {
		b := NewBus(c.bpc)
		if got := b.Transfer(0, c.bytes); got != c.want {
			t.Errorf("Transfer(%d bytes at %v B/cycle) done at %d, want %d",
				c.bytes, c.bpc, got, c.want)
		}
	}
}

func TestInfiniteBus(t *testing.T) {
	b := NewBus(0)
	if d := b.Transfer(10, 64); d != 10 {
		t.Fatalf("infinite bus delayed transfer to %d", d)
	}
}

func TestBusUtilization(t *testing.T) {
	b := NewBus(2)
	b.Transfer(0, 64) // 32 cycles busy
	if u := b.Utilization(64); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if u := b.Utilization(0); u != 0 {
		t.Fatal("zero-cycle utilization should be 0")
	}
}

func TestMaskedWaysShrinkCapacity(t *testing.T) {
	full := NewSetAssoc("f", 1<<13, 8, 64, 0)
	half := NewSetAssoc("h", 1<<13, 8, 64, 4)
	if half.Size() != full.Size()/2 {
		t.Fatalf("masked size %d, want %d", half.Size(), full.Size()/2)
	}
	// With 4 of 8 ways masked, 5 lines in one set must cause an eviction.
	h := New(Params{Cores: 1, LineSize: 64, L1Size: 1 << 10, L1Ways: 4,
		L2Size: 1 << 13, L2Ways: 8, L2MaskedWays: 4, BusBPC: 0,
		Lat: Latencies{L1: 1, L2: 10, Mem: 100}})
	now := int64(0)
	for i := 0; i < 5; i++ {
		now = h.AccessLine(0, uint64(i*16), false, now) // all map to L2 set 0
	}
	if h.L2().Stats.Evictions == 0 {
		t.Fatal("masked L2 set held more lines than its powered-on ways")
	}
}

func TestMissLatencyOrdering(t *testing.T) {
	// L2 hit must be faster than L2 miss; L1 hit fastest.
	h := New(smallParams(1))
	tMiss := h.AccessLine(0, 0, false, 0)
	tL1 := h.AccessLine(0, 0, false, tMiss) - tMiss
	// Evict line 0 from L1 only (4-way sets, stride 4 lines).
	now := tMiss + tL1
	for i := 1; i <= 4; i++ {
		now = h.AccessLine(0, uint64(i*4), false, now)
	}
	tL2 := h.AccessLine(0, 0, false, now) - now
	if !(tL1 < tL2 && tL2 < tMiss) {
		t.Fatalf("latency ordering broken: L1=%d L2=%d mem=%d", tL1, tL2, tMiss)
	}
}

func TestInclusionPropertyRandomTraffic(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xprng.New(seed)
		cores := rng.Intn(4) + 1
		h := New(smallParams(cores))
		now := int64(0)
		for i := 0; i < 2000; i++ {
			core := rng.Intn(cores)
			tag := uint64(rng.Intn(1 << 9))
			write := rng.Intn(3) == 0
			now = h.AccessLine(core, tag, write, now)
		}
		return h.CheckInclusion() == nil
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestHintNeverChangesResults replays one seeded multi-core stream on two
// hierarchies and, on one of them, overwrites every set's lookup hint with
// arbitrary way indices — stale, cross-set, masked — before each access.
// The hint may only shorten a lookup: every completion cycle, line, LRU
// clock, per-level counter and bus counter must still match.
func TestHintNeverChangesResults(t *testing.T) {
	p := smallParams(4)
	p.L2MaskedWays = 2
	want, got := New(p), New(p)
	caches := append(append([]*SetAssoc{}, got.l1...), got.l2)
	rng := xprng.New(19)
	now := int64(0)
	for i := 0; i < 20000; i++ {
		for _, c := range caches {
			for s := range c.pred {
				c.pred[s] = [2]int32{int32(rng.Intn(len(c.keys))), int32(rng.Intn(len(c.keys)))}
			}
		}
		core := rng.Intn(p.Cores)
		tag := uint64(rng.Intn(1 << 8))
		write := rng.Intn(3) == 0
		w := want.AccessLine(core, tag, write, now)
		if g := got.AccessLine(core, tag, write, now); g != w {
			t.Fatalf("access %d: completes at %d with scrambled hints, %d without", i, g, w)
		}
		now = w
	}
	sameState(t, "scrambled hints", got, want)
	var l1 LevelStats
	for c := 0; c < p.Cores; c++ {
		s := want.L1(c).Stats
		l1.Hits += s.Hits
		l1.Upgrades += s.Upgrades
		l1.Invalidations += s.Invalidations
	}
	if l2 := want.L2().Stats; l1.Hits == 0 || l1.Upgrades == 0 || l1.Invalidations == 0 || l2.Misses == 0 || l2.Evictions == 0 || l2.Writebacks == 0 {
		t.Fatalf("stream misses a case: L1 %+v L2 %+v", l1, l2)
	}
}

// TestInvalidationCountedOncePerCause pins the per-cause accounting of
// Stats.Invalidations: SetAssoc.clear itself is count-free, and the
// hierarchy counts exactly one invalidation per L1 copy dropped — whether
// the cause is coherence (another core takes exclusive ownership) or
// inclusion (the L2 evicts a line some L1 still holds). The wart this
// guards against: counting inside the drop primitive either missed the
// inclusion path or double-counted copies dropped through two call sites.
func TestInvalidationCountedOncePerCause(t *testing.T) {
	// Coherence, upgrade path: two sharers, one writes.
	h := New(smallParams(3))
	now := h.AccessLine(0, 0, false, 0)
	now = h.AccessLine(1, 0, false, now)
	now = h.AccessLine(2, 0, false, now)
	now = h.AccessLine(0, 0, true, now) // upgrade: drops copies in cores 1 and 2
	for c := 1; c <= 2; c++ {
		if got := h.L1(c).Stats.Invalidations; got != 1 {
			t.Fatalf("after upgrade, core %d invalidations = %d, want exactly 1", c, got)
		}
	}
	if got := h.L1(0).Stats.Invalidations; got != 0 {
		t.Fatalf("writer counted %d invalidations against itself", got)
	}

	// Coherence, write-miss path: core 1 writes a line only core 0 holds.
	now = h.AccessLine(1, 0, true, now)
	if got := h.L1(0).Stats.Invalidations; got != 1 {
		t.Fatalf("after write miss, core 0 invalidations = %d, want exactly 1", got)
	}

	// Inclusion back-invalidation: core 1 holds a line; core 0 streams
	// conflicting lines through the same L2 set until the L2 evicts it.
	// smallParams: L2 is 16 sets x 8 ways, so 8 distinct conflicting tags
	// (stride 16 lines) fill the set and the 8th evicts the
	// LRU victim — the line core 1 still holds.
	h = New(smallParams(2))
	now = h.AccessLine(1, 0, false, 0)
	for i := 1; i <= 8; i++ {
		now = h.AccessLine(0, uint64(i*16), false, now)
	}
	if got := h.L1(1).Stats.Invalidations; got != 1 {
		t.Fatalf("after inclusion eviction, core 1 invalidations = %d, want exactly 1", got)
	}
	if got := h.L1(0).Stats.Invalidations; got != 0 {
		t.Fatalf("streaming core counted %d invalidations", got)
	}
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUStackProperty(t *testing.T) {
	// Inclusion-property of LRU: a trace run against a larger-associativity
	// cache of the same set count can only hit more, never less.
	rng := xprng.New(9)
	trace := make([]mem.Addr, 5000)
	for i := range trace {
		trace[i] = mem.Addr(rng.Intn(1 << 13))
	}
	var prevHits int64 = -1
	for _, ways := range []int{1, 2, 4, 8} {
		c := NewSetAssoc("c", int64(ways)*16*64, ways, 64, 0) // 16 sets each
		var hits int64
		for _, a := range trace {
			tag := uint64(a) >> 6 // 64-byte lines
			if i := c.lookup(tag); i >= 0 {
				c.touch(&c.lines[i])
				hits++
			} else {
				c.touch(c.install(c.victim(tag), tag))
			}
		}
		if hits < prevHits {
			t.Fatalf("LRU stack property violated: %d ways hit %d < %d", ways, hits, prevHits)
		}
		prevHits = hits
	}
}

func TestCountValidBySpace(t *testing.T) {
	h := New(smallParams(1))
	s0 := mem.NewSpace(0)
	s1 := mem.NewSpace(1)
	a0 := uint64(s0.Alloc("a", 1024, 0)) >> 6
	a1 := uint64(s1.Alloc("a", 1024, 0)) >> 6
	now := int64(0)
	for i := 0; i < 4; i++ {
		now = h.AccessLine(0, a0+uint64(i), false, now)
	}
	for i := 0; i < 2; i++ {
		now = h.AccessLine(0, a1+uint64(i), false, now)
	}
	total, in0 := h.L2().CountValid(0)
	_, in1 := h.L2().CountValid(1)
	if total != 6 || in0 != 4 || in1 != 2 {
		t.Fatalf("occupancy: total=%d space0=%d space1=%d", total, in0, in1)
	}
}

func TestGeometryPanics(t *testing.T) {
	cases := []func(){
		func() { NewSetAssoc("x", 1000, 4, 64, 0) },  // size not divisible
		func() { NewSetAssoc("x", 1<<12, 4, 60, 0) }, // line not pow2
		func() { NewSetAssoc("x", 1<<12, 4, 64, 4) }, // all ways masked
		func() { New(Params{Cores: 0}) },
		func() { New(Params{Cores: 65}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
	// Geometry NewSetAssoc accepts, with 4-byte lines: New itself must
	// refuse it, as machine.Config.Validate does, since an action's line
	// tag (trace.Action.Line) would take in its kind bits.
	func() {
		defer func() {
			if r, _ := recover().(string); !strings.Contains(r, "line size 4 is below 8 bytes") {
				t.Errorf("4-byte lines: panic %q, want the line-size refusal", r)
			}
		}()
		p := smallParams(1)
		p.LineSize = 4
		New(p)
	}()
}

func TestStatsHelpers(t *testing.T) {
	s := LevelStats{Hits: 3, Misses: 1}
	if s.Accesses() != 4 {
		t.Fatalf("stats helpers wrong: %+v", s)
	}
}
