package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Latencies holds the access times of each level, in core cycles.
type Latencies struct {
	L1  int64 // hit latency of a private L1
	L2  int64 // additional latency of a shared L2 hit
	Mem int64 // additional latency of a DRAM access after bus grant
}

// Params configures a Hierarchy.
type Params struct {
	Cores        int
	LineSize     int
	L1Size       int64
	L1Ways       int
	L2Size       int64
	L2Ways       int
	L2MaskedWays int     // powered-down L2 ways (t3-power experiment)
	BusBPC       float64 // off-chip bytes per cycle; 0 = infinite
	Lat          Latencies
}

// Hierarchy is the full simulated memory system: per-core private L1s above
// one shared, inclusive L2 with a sharer-bitvector directory, above a
// bandwidth-limited bus to memory.
//
// Coherence is write-invalidate (MESI-like without the fine distinctions):
// a core must hold a line exclusively in its L1 to write it; obtaining
// exclusivity invalidates other L1 copies via the directory. Inclusion is
// enforced: evicting an L2 line invalidates all L1 copies.
type Hierarchy struct {
	params Params
	l1     []*SetAssoc
	l2     *SetAssoc
	bus    *Bus

	// Hot-path copies of the invariant geometry, hoisted out of params so
	// the per-access code reads fields at fixed small offsets.
	lineShift uint
	lat       Latencies

	attr *Attribution // optional traffic attribution, nil when disabled

	// Run-ahead state (see RunAhead). logs[c] holds core c's uncommitted
	// run-ahead hits; logged and rewound are core bitmasks of non-empty logs
	// and of cores rolled back since their last TakeRewind. evAt is the
	// start cycle of the access in progress — its stepwise event time.
	logs    []hitLog
	logged  uint64
	rewound uint64
	evAt    int64
}

// logCap bounds one core's run-ahead log; a full log ends the run-ahead.
const logCap = 64

// hitRec is the undo record of one run-ahead L1 hit.
type hitRec struct {
	at      int64  // start cycle of the hit
	ip      int32  // the caller's action index, returned as the rewind point
	way     int32  // L1 way index the hit touched
	lastUse uint64 // the way's lastUse before the hit
	write   bool
	dirty   bool // the way's dirty bit before a write hit
}

// hitLog is one core's uncommitted run-ahead hits, in time order, plus the
// rewind point and undone-hit count its rollbacks leave for TakeRewind.
type hitLog struct {
	recs     [logCap]hitRec
	n        int
	rewindAt int64
	rewindIP int32
	undone   int
}

// New builds a hierarchy. It panics on inconsistent geometry — experiment
// configurations are programmer input, not user input.
func New(p Params) *Hierarchy {
	if p.Cores <= 0 {
		panic("cache: hierarchy needs at least one core")
	}
	if p.Cores > 64 {
		panic("cache: directory bitvector supports at most 64 cores")
	}
	if p.LineSize < 8 {
		// machine.Config.Validate refuses such lines too; this guards the
		// callers that build Params directly. trace.Action.Line needs a
		// shift of at least 2, and an aligned element must not straddle.
		panic(fmt.Sprintf("cache: line size %d is below 8 bytes, the widest traced element", p.LineSize))
	}
	h := &Hierarchy{
		params: p,
		l2:     NewSetAssoc("L2", p.L2Size, p.L2Ways, p.LineSize, p.L2MaskedWays),
		bus:    NewBus(p.BusBPC),
		lat:    p.Lat,
		logs:   make([]hitLog, p.Cores),
	}
	h.lineShift = h.l2.lineShift
	for c := 0; c < p.Cores; c++ {
		h.l1 = append(h.l1, NewSetAssoc(fmt.Sprintf("L1.%d", c), p.L1Size, p.L1Ways, p.LineSize, 0))
	}
	return h
}

// Params returns the construction parameters.
func (h *Hierarchy) Params() Params { return h.params }

// L1 returns core c's private cache (for stats and tests).
func (h *Hierarchy) L1(c int) *SetAssoc { return h.l1[c] }

// L2 returns the shared cache.
func (h *Hierarchy) L2() *SetAssoc { return h.l2 }

// Bus returns the off-chip bus.
func (h *Hierarchy) Bus() *Bus { return h.bus }

// LineShift returns log2 of the line size: an address's line tag is
// addr >> LineShift().
func (h *Hierarchy) LineShift() uint { return h.lineShift }

// AccessLine simulates core reading or writing the line with the given tag,
// issued at cycle now, and returns the cycle at which the access completes.
// Every recorded access lies within one line (see package trace), so this is
// the only access entry point; it stays inlinable at the simulator's replay
// site.
func (h *Hierarchy) AccessLine(core int, tag uint64, write bool, now int64) int64 {
	h.evAt = now
	return h.accessLine(core, tag, write, now)
}

// RunAhead replays core's actions from actions[ip], the first at cycle
// done, ahead of global event order for as long as each memory action is a
// private L1 hit: a read of a resident line or a write of an exclusively
// held one. Such a hit changes only core's own L1 (its LRU clock, the way's
// lastUse and dirty bit, Stats.Hits), so it commutes with every other core's
// access except one that drops or downgrades that same way — and those
// three touch sites roll it back (see rollback). Each hit is logged with its
// action index, which TakeRewind hands back as the rewind point. A Compute
// costs its N cycles and always runs, and a hit's post runs right after it.
//
// It stops, in this order of checks, when the actions run out, when done
// reaches limit, at a memory action issued at or past end, when core's log
// is full, at an access neither hint entry holds (only hinted hits run
// ahead: a miss then costs two compares instead of a set scan, and a
// resident line the hint missed simply waits for its turn in exact order),
// and at a write to a non-exclusive line (after the hint moved, as in an
// exact-order access). A hit that completes at or past limit stops it
// too, before its post: stepwise order runs those cycles as their own
// event at the hit's completion, so it returns the hit's own index with
// split set, and the caller runs the post first when the core next pops.
// It returns the index of the first action not (or, when split, not
// wholly) run, the cycle it would start at, the instructions and hits
// run, and split.
//
// The loop keeps core's L1 arrays, the LRU clock and the log length in
// locals and writes them, the hit count and core's logged bit back once.
// It counts no instructions: every cycle it runs is a compute cycle (one
// instruction) or part of a hit (lat cycles, one instruction), so they
// follow from the cycles and hits at the end.
func (h *Hierarchy) RunAhead(core int, actions []trace.Action, ip int, done, end, limit int64) (int, int64, int64, int64, bool) {
	lg := &h.logs[core]
	l1 := h.l1[core]
	keys, lines, pred, setMask := l1.keys, l1.lines, l1.pred, l1.setMask
	shift, lat := h.lineShift, h.lat.L1
	clock, n0 := l1.clock, lg.n
	n := n0 // one log record per hit: the hits are n - n0
	start := done
	split := false
	for ; ip < len(actions) && done < limit; ip++ {
		a := actions[ip]
		if a.Kind() == trace.Compute {
			done += a.N()
			continue
		}
		if done >= end || uint(n) >= logCap {
			break
		}
		tag := a.Line(shift)
		p := &pred[tag&setMask]
		i := int(p[0])
		if keys[i] != tag {
			if i = int(p[1]); keys[i] != tag {
				break
			}
			p[0], p[1] = p[1], p[0]
		}
		ln := &lines[i]
		write := a.Kind() == trace.Store
		if write && !ln.excl {
			break
		}
		r := &lg.recs[n]
		r.at, r.ip, r.way = done, int32(ip), int32(i)
		r.lastUse, r.write, r.dirty = ln.lastUse, write, ln.dirty
		n++
		clock++
		ln.lastUse = clock
		if write {
			ln.dirty = true
		}
		done += lat
		// Test limit first: it almost never holds, while whether a hit
		// has a post is data-dependent and would mispredict.
		if done >= limit && a.Post() != 0 {
			split = true
			break
		}
		done += a.Post()
	}
	hits := int64(n - n0)
	l1.clock = clock
	l1.Stats.Hits += hits
	lg.n = n
	if n > 0 {
		h.logged |= 1 << uint(core)
	}
	return ip, done, done - start - hits*(lat-1), hits, split
}

// Commit makes core's run-ahead hits final. Call it once no access that
// precedes them in stepwise order can still arrive: when core's own next
// event is the global minimum, and when replay stops.
func (h *Hierarchy) Commit(core int) {
	h.logged &^= 1 << uint(core)
	h.logs[core].n = 0
}

// CommitAll commits every core's run-ahead hits.
func (h *Hierarchy) CommitAll() {
	for m := h.logged; m != 0; m &= m - 1 {
		h.logs[bits.TrailingZeros64(m)].n = 0
	}
	h.logged = 0
}

// Rewound returns the bitmask of cores rolled back since their last
// TakeRewind.
func (h *Hierarchy) Rewound() uint64 { return h.rewound }

// TakeRewind returns where rolled-back core must resume — the start cycle
// and action index of its earliest undone hit — and how many hits were
// undone, and clears core's rewound bit.
func (h *Hierarchy) TakeRewind(core int) (at int64, ip int, undone int) {
	lg := &h.logs[core]
	at, ip, undone = lg.rewindAt, int(lg.rewindIP), lg.undone
	lg.undone = 0
	h.rewound &^= 1 << uint(core)
	return at, ip, undone
}

// rollback undoes core c's run-ahead hits from its first hit on way (only
// its first write hit when writesOnly) that comes after the access in
// progress — made by core at cycle evAt — in stepwise order: a later
// cycle, or the same cycle and a higher core id. The undone suffix is
// restored newest first, so each way regains its pre-hit lastUse and (for
// writes) dirty bit; a read never changed dirty, and its recorded value may
// since have been folded by a downgrade, so reads leave dirty alone. Hits
// before the suffix stay: they precede this access, and every later access
// that can call rollback comes later still.
func (h *Hierarchy) rollback(c, way, core int, writesOnly bool) {
	lg := &h.logs[c]
	recs := lg.recs[:lg.n]
	k := 0
	for k < len(recs) && (recs[k].at < h.evAt || recs[k].at == h.evAt && c < core) {
		k++
	}
	for k < len(recs) && (int(recs[k].way) != way || writesOnly && !recs[k].write) {
		k++
	}
	if k == len(recs) {
		return
	}
	l1 := h.l1[c]
	for j := len(recs) - 1; j >= k; j-- {
		r := &recs[j]
		ln := &l1.lines[r.way]
		ln.lastUse = r.lastUse
		if r.write {
			ln.dirty = r.dirty
		}
	}
	undone := len(recs) - k
	l1.clock -= uint64(undone)
	l1.Stats.Hits -= int64(undone)
	lg.undone += undone
	lg.rewindAt, lg.rewindIP = recs[k].at, recs[k].ip
	lg.n = k
	h.rewound |= 1 << uint(c)
	if k == 0 {
		h.logged &^= 1 << uint(c)
	}
}

// accessLine performs the coherent lookup/fill protocol for a single line,
// identified by its tag (line address >> lineShift).
//
// It never inlines, so AccessLine stays a small wrapper that inlines into
// replay under any profile. Profile-guided inlining puts accessLine's own
// cost within a few units of the hot-callee budget (2000), and a profile
// that let it in made AccessLine too big to inline instead.
//
//go:noinline
func (h *Hierarchy) accessLine(core int, tag uint64, write bool, now int64) int64 {
	l1 := h.l1[core]
	// probe inlines and lookup does not, so a hinted hit costs no call; a
	// probe miss repeats the two compares inside lookup before its scan.
	i := l1.probe(tag)
	if i < 0 {
		i = l1.lookup(tag)
	}
	if i >= 0 {
		ln := &l1.lines[i]
		l1.touch(ln)
		if !write {
			l1.Stats.Hits++
			return now + h.lat.L1
		}
		if ln.excl {
			l1.Stats.Hits++
			ln.dirty = true
			return now + h.lat.L1
		}
		// Write hit on a shared line: upgrade via the directory. This is
		// an L1 hit for counting purposes (no fill), but pays an L2 trip.
		l1.Stats.Hits++
		l1.Stats.Upgrades++
		h.invalidateOthersIn(core, &h.l2.lines[ln.l2way], tag)
		ln.excl = true
		ln.dirty = true
		return now + h.lat.L1 + h.lat.L2
	}

	// L1 miss.
	l1.Stats.Misses++
	reqAt := now + h.lat.L1 + h.lat.L2
	done := reqAt
	j := h.l2.lookup(tag)
	if j < 0 {
		// L2 miss: off-chip fill. The bus is held for the line transfer;
		// DRAM access latency itself pipelines across requesters.
		h.l2.Stats.Misses++
		done = h.offchip(reqAt, tag) + h.lat.Mem
		// The victim is chosen (and its writeback issued) when the miss
		// reaches the L2, not after the fill returns — otherwise queued
		// writebacks would be stamped into the future and artificially
		// serialize later demand fills.
		j = h.fillL2(core, tag, reqAt)
	} else {
		h.l2.Stats.Hits++
		h.l2.touch(&h.l2.lines[j])
		// If another core holds the line dirty-exclusive, it must supply
		// and downgrade (or surrender, on a write) its copy.
		h.downgradeOwners(core, &h.l2.lines[j], tag)
	}
	l2ln := &h.l2.lines[j]

	if write {
		// Take exclusive ownership: drop all other sharers.
		h.invalidateOthersIn(core, l2ln, tag)
		l2ln.sharers = 1 << uint(core)
	} else {
		l2ln.sharers |= 1 << uint(core)
	}

	h.fillL1(core, tag, write, j)
	return done
}

// offchip moves line tag across the bus, requested at cycle now, for a
// demand fill or a dirty writeback, and returns when the transfer ends.
func (h *Hierarchy) offchip(now int64, tag uint64) int64 {
	if h.attr != nil {
		h.attr.record(mem.Addr(tag<<h.lineShift), h.params.LineSize)
	}
	return h.bus.Transfer(now, h.params.LineSize)
}

// fillL2 inserts a missing line into the L2 for core's access, handling
// inclusion back-invalidation of L1 copies and a dirty writeback of the
// victim. now is the time the miss reached the L2 (pre-DRAM), which is when
// the victim's writeback occupies the bus. It returns the filled way.
func (h *Hierarchy) fillL2(core int, tag uint64, now int64) int {
	vi := h.l2.victim(tag)
	if h.l2.keys[vi] != invalidKey {
		h.l2.Stats.Evictions++
		v := &h.l2.lines[vi]
		dirty := v.dirty
		// Inclusion: every L1 copy of the victim must be dropped. A dirty
		// L1 copy is newer than the L2's, so its data must go off-chip.
		// Bitmask iteration pops sharers in ascending core id.
		if v.sharers != 0 {
			vTag := h.l2.keys[vi]
			for m := v.sharers; m != 0; m &= m - 1 {
				if h.revoke(bits.TrailingZeros64(m), vTag, core) {
					dirty = true
				}
			}
		}
		if dirty {
			h.l2.Stats.Writebacks++
			h.offchip(now, h.l2.keys[vi])
		}
	}
	h.l2.touch(h.l2.install(vi, tag))
	return vi
}

// fillL1 inserts a line into core's L1, recording l2way, the L2 way that
// holds it. A victim leaves the directory through its own l2way: its sharer
// bit clears and a dirty copy marks the L2 line dirty. That way still holds
// the victim's tag by inclusion: fillL2 refills an L2 way only after
// revoking every L1 copy of its old line.
func (h *Hierarchy) fillL1(core int, tag uint64, excl bool, l2way int) {
	l1 := h.l1[core]
	vi := l1.victim(tag)
	if l1.keys[vi] != invalidKey {
		l1.Stats.Evictions++
		v := &l1.lines[vi]
		l2v := &h.l2.lines[v.l2way]
		l2v.sharers &^= 1 << uint(core)
		if v.dirty {
			l2v.dirty = true
			l1.Stats.Writebacks++
		}
	}
	ln := l1.install(vi, tag)
	ln.excl = excl
	ln.dirty = excl
	ln.l2way = int32(l2way)
	l1.touch(ln)
}

// invalidateOthersIn removes every L1 copy of tag except core's own, l2ln
// being tag's L2 line, folding dirty data into it. Sharers are dropped in
// ascending core id.
func (h *Hierarchy) invalidateOthersIn(core int, l2ln *line, tag uint64) {
	for m := l2ln.sharers &^ (1 << uint(core)); m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		if h.revoke(c, tag, core) {
			l2ln.dirty = true
		}
		l2ln.sharers &^= 1 << uint(c)
	}
}

// revoke drops core c's L1 copy of tag, if present, for the access in
// progress by core — a coherence invalidation or an inclusion
// back-invalidation, counted once per dropped copy. It first rolls back
// c's run-ahead hits on the line that follow the access, and reports
// whether the dropped copy was dirty.
func (h *Hierarchy) revoke(c int, tag uint64, core int) (wasDirty bool) {
	l1 := h.l1[c]
	i := l1.scan(tag)
	if i < 0 {
		return false
	}
	if h.logged&(1<<uint(c)) != 0 {
		h.rollback(c, i, core, false)
	}
	l1.Stats.Invalidations++
	return l1.clear(i)
}

// downgradeOwners handles a read (or the lookup phase of a write) hitting a
// line that some other L1 holds exclusively: the owner loses exclusivity and
// folds dirty data into the L2. On writes, invalidateOthersIn then removes
// the copy outright. A downgrade commutes with the owner's run-ahead reads
// of the line, so only its later run-ahead writes roll back.
//
// Only a line with exactly one sharer besides core can need either step.
// Taking ownership drops every other copy, so an exclusive copy is always
// its line's only sharer (CheckInclusion asserts it). A run-ahead write
// needs an exclusive copy, and the downgrade that made the line shared —
// an access no later in stepwise order than this one — already rolled back
// every run-ahead write after it. So with two or more other sharers there
// is nothing to downgrade and nothing to roll back.
func (h *Hierarchy) downgradeOwners(core int, l2ln *line, tag uint64) {
	m := l2ln.sharers &^ (1 << uint(core))
	if m == 0 || m&(m-1) != 0 {
		return
	}
	c := bits.TrailingZeros64(m)
	i := h.l1[c].scan(tag)
	if i < 0 {
		return
	}
	if h.logged&(1<<uint(c)) != 0 {
		h.rollback(c, i, core, true)
	}
	ln := &h.l1[c].lines[i]
	if ln.excl {
		if ln.dirty {
			l2ln.dirty = true
			ln.dirty = false
		}
		ln.excl = false
	}
}

// CheckInclusion verifies that every valid L1 line is present in the L2,
// that its l2way names the L2 way holding it, that the directory sharer
// bits are exact, and that an exclusive L1 copy is its line's only sharer.
// Used by property tests; O(cache size).
func (h *Hierarchy) CheckInclusion() error {
	want := map[uint64]uint64{} // line tag -> expected sharer mask
	owner := map[uint64]int{}   // line tag -> core holding it exclusively
	for c, l1 := range h.l1 {
		for i, tag := range l1.keys {
			if tag == invalidKey {
				continue
			}
			j := h.l2.scan(tag)
			if j < 0 {
				return fmt.Errorf("inclusion violated: core %d holds line %x absent from L2", c, tag)
			}
			if w := int(l1.lines[i].l2way); w != j {
				return fmt.Errorf("core %d's copy of line %x points at L2 way %d, held in way %d", c, tag, w, j)
			}
			want[tag] |= 1 << uint(c)
			if l1.lines[i].excl {
				owner[tag] = c
			}
		}
	}
	for j, tag := range h.l2.keys {
		if tag == invalidKey {
			continue
		}
		if s := h.l2.lines[j].sharers; s != want[tag] {
			return fmt.Errorf("directory wrong for line %x: sharers=%b actual=%b", tag, s, want[tag])
		}
		if c, ok := owner[tag]; ok && want[tag] != 1<<uint(c) {
			return fmt.Errorf("core %d holds line %x exclusively beside sharers %b", c, tag, want[tag])
		}
	}
	return nil
}
