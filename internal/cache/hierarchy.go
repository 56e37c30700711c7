package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
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

	// Run-ahead state (see RunAheadHit). logs[c] holds core c's uncommitted
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

// RunAheadHit performs core's access to line tag at cycle at ahead of global
// event order, provided it is a private L1 hit: a read of a resident line or
// a write of an exclusively held one. Such a hit changes only core's own L1
// (its LRU clock, the way's lastUse and dirty bit, Stats.Hits), so it
// commutes with every other core's access except one that drops or
// downgrades that same way — and those three touch sites roll it back (see
// rollback). The hit is logged with ip, the caller's action index, which
// TakeRewind hands back as the rewind point. It reports false and changes
// nothing for any other access or when core's log is full.
func (h *Hierarchy) RunAheadHit(core int, tag uint64, write bool, at int64, ip int) (int64, bool) {
	lg := &h.logs[core]
	if lg.n == logCap {
		return 0, false
	}
	// Only hinted hits run ahead: a miss then costs two compares here
	// instead of a set scan, and a resident line the hint missed simply
	// waits for its turn in exact order.
	l1 := h.l1[core]
	i := l1.probe(tag)
	if i < 0 {
		return 0, false
	}
	ln := &l1.lines[i]
	if write && !ln.excl {
		return 0, false
	}
	r := &lg.recs[lg.n]
	r.at, r.ip, r.way = at, int32(ip), int32(i)
	r.lastUse, r.write, r.dirty = ln.lastUse, write, ln.dirty
	lg.n++
	h.logged |= 1 << uint(core)
	l1.touch(ln)
	l1.Stats.Hits++
	if write {
		ln.dirty = true
	}
	return at + h.lat.L1, true
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
		h.invalidateOthers(core, tag)
		ln.excl = true
		ln.dirty = true
		return now + h.lat.L1 + h.lat.L2
	}

	// L1 miss.
	l1.Stats.Misses++
	reqAt := now + h.lat.L1 + h.lat.L2
	done := reqAt
	var l2ln *line
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
		l2ln = h.fillL2(core, tag, reqAt)
	} else {
		h.l2.Stats.Hits++
		l2ln = &h.l2.lines[j]
		h.l2.touch(l2ln)
		// If another core holds the line dirty-exclusive, it must supply
		// and downgrade (or surrender, on a write) its copy.
		h.downgradeOwners(core, l2ln, tag)
	}

	if write {
		// Take exclusive ownership: drop all other sharers.
		h.invalidateOthersIn(core, l2ln, tag)
		l2ln.sharers = 1 << uint(core)
	} else {
		l2ln.sharers |= 1 << uint(core)
	}

	h.fillL1(core, tag, write)
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
// the victim's writeback occupies the bus.
func (h *Hierarchy) fillL2(core int, tag uint64, now int64) *line {
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
	ln := h.l2.install(vi, tag)
	h.l2.touch(ln)
	return ln
}

// fillL1 inserts a line into core's L1, writing a dirty victim back into
// the (inclusive, hence guaranteed present) L2.
func (h *Hierarchy) fillL1(core int, tag uint64, excl bool) {
	l1 := h.l1[core]
	vi := l1.victim(tag)
	if l1.keys[vi] != invalidKey {
		l1.Stats.Evictions++
		h.dropL1Copy(core, l1.keys[vi], l1.lines[vi].dirty)
		if l1.lines[vi].dirty {
			l1.Stats.Writebacks++
		}
	}
	ln := l1.install(vi, tag)
	ln.excl = excl
	ln.dirty = excl
	l1.touch(ln)
}

// dropL1Copy updates the directory when core silently evicts (or writes
// back) its copy of tag. A dirty copy marks the L2 line dirty.
func (h *Hierarchy) dropL1Copy(core int, tag uint64, dirty bool) {
	if j := h.l2.lookup(tag); j >= 0 {
		l2ln := &h.l2.lines[j]
		l2ln.sharers &^= 1 << uint(core)
		if dirty {
			l2ln.dirty = true
		}
	}
}

// invalidateOthers removes every L1 copy of tag except core's own, folding
// dirty data into the L2 line.
func (h *Hierarchy) invalidateOthers(core int, tag uint64) {
	if j := h.l2.lookup(tag); j >= 0 {
		h.invalidateOthersIn(core, &h.l2.lines[j], tag)
	}
}

// invalidateOthersIn is invalidateOthers with the L2 line already resolved.
// Sharers are dropped in ascending core id.
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
func (h *Hierarchy) downgradeOwners(core int, l2ln *line, tag uint64) {
	for m := l2ln.sharers &^ (1 << uint(core)); m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		if i := h.l1[c].scan(tag); i >= 0 {
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
	}
}

// CheckInclusion verifies that every valid L1 line is present in the L2 and
// that the directory sharer bits are exact. Used by property tests; O(cache
// size).
func (h *Hierarchy) CheckInclusion() error {
	type key = uint64
	want := map[key]uint64{} // line tag -> expected sharer mask
	for c, l1 := range h.l1 {
		var err error
		l1.ForEachValid(func(a mem.Addr, _ bool) {
			tag := h.l2.lineAddr(a)
			if h.l2.lookup(tag) < 0 {
				err = fmt.Errorf("inclusion violated: core %d holds %x absent from L2", c, a)
			}
			want[tag] |= 1 << uint(c)
		})
		if err != nil {
			return err
		}
	}
	var err error
	h.l2.ForEachValid(func(a mem.Addr, _ bool) {
		tag := h.l2.lineAddr(a)
		ln := &h.l2.lines[h.l2.lookup(tag)]
		if ln.sharers != want[tag] {
			err = fmt.Errorf("directory wrong for %x: sharers=%b actual=%b", a, ln.sharers, want[tag])
		}
		delete(want, tag)
	})
	if err != nil {
		return err
	}
	if len(want) != 0 {
		return fmt.Errorf("%d L1 lines not found in L2 scan", len(want))
	}
	return nil
}
