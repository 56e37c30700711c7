// Package cache implements the simulated CMP memory hierarchy the paper's
// evaluation runs on: fixed-size private L1 caches per core, one shared
// inclusive L2 with a directory for coherence, and a finite-bandwidth
// off-chip bus. L2 misses are the paper's headline metric — each one is an
// off-chip transfer, so "L2 misses per 1000 instructions" is the off-chip
// traffic Figure 1 plots.
package cache

import (
	"fmt"

	"repro/internal/mem"
)

// LevelStats counts events at one cache level.
type LevelStats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Writebacks    int64 // dirty evictions pushed down a level
	Invalidations int64 // coherence or inclusion invalidations received
	Upgrades      int64 // write hits that required ownership upgrades
}

// Accesses returns hits + misses.
func (s LevelStats) Accesses() int64 { return s.Hits + s.Misses }

// invalidKey is the search-key value of an empty (invalid) way. Simulated
// addresses carry an 8-bit space id above a 40-bit offset (see internal/mem),
// so real line tags never exceed 2^48 and can never collide with it.
const invalidKey = ^uint64(0)

// line is one cache line's metadata beyond its search key. Data contents are
// not stored: the simulation is trace-driven, so only presence, ownership,
// and dirtiness matter. Presence and the tag itself live in the SetAssoc's
// dense keys array — the lookup loop then scans one machine word per way
// instead of dragging whole line structs through the L1 of the *host* — and
// a line here is meaningful iff its way's key is not invalidKey.
type line struct {
	lastUse uint64 // LRU clock value of most recent touch
	sharers uint64 // L2 only: bitmask of cores whose L1 holds this line
	dirty   bool
	excl    bool  // L1 only: this core has exclusive (writable) ownership
	l2way   int32 // L1 only: index of the L2 way holding this line's tag
}

// SetAssoc is a set-associative cache with true-LRU replacement.
//
// EffectiveWays may be lower than the geometric associativity to model the
// cache-segment power-down experiment: masked ways are simply never used,
// exactly like gating their power.
//
// Hot state is struct-of-arrays: keys holds each way's search key (the line
// tag, or invalidKey for an empty way) densely, and lines the rest of the
// metadata. The two arrays are index-parallel; every transition that fills
// or drops a way goes through install/clear so they cannot diverge.
type SetAssoc struct {
	Name      string
	ways      int
	effWays   int
	numSets   int
	lineShift uint
	setMask   uint64
	keys      []uint64   // numSets * ways, set-major: tag or invalidKey
	lines     []line     // numSets * ways, set-major, parallel to keys
	pred      [][2]int32 // per set: its two most recent ways, a lookup hint
	clock     uint64
	Stats     LevelStats
}

// NewSetAssoc builds a cache of size bytes with the given associativity and
// line size. Size must be ways*lineSize*2^k for integer k. maskedWays of the
// associativity are powered down (0 for a fully-on cache).
func NewSetAssoc(name string, size int64, ways, lineSize, maskedWays int) *SetAssoc {
	if ways <= 0 || lineSize <= 0 || size <= 0 {
		panic(fmt.Sprintf("cache %s: non-positive geometry", name))
	}
	if lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", name, lineSize))
	}
	numSets := int(size) / (ways * lineSize)
	if numSets <= 0 || int64(numSets*ways*lineSize) != size {
		panic(fmt.Sprintf("cache %s: size %d not divisible into %d ways of %dB lines", name, size, ways, lineSize))
	}
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, numSets))
	}
	if maskedWays < 0 || maskedWays >= ways {
		panic(fmt.Sprintf("cache %s: cannot mask %d of %d ways", name, maskedWays, ways))
	}
	shift := uint(0)
	for 1<<shift != lineSize {
		shift++
	}
	keys := make([]uint64, numSets*ways)
	for i := range keys {
		keys[i] = invalidKey
	}
	return &SetAssoc{
		Name:      name,
		ways:      ways,
		effWays:   ways - maskedWays,
		numSets:   numSets,
		lineShift: shift,
		setMask:   uint64(numSets - 1),
		keys:      keys,
		lines:     make([]line, numSets*ways),
		pred:      make([][2]int32, numSets),
	}
}

// LineSize returns the line size in bytes.
func (c *SetAssoc) LineSize() int { return 1 << c.lineShift }

// Size returns the powered-on capacity in bytes.
func (c *SetAssoc) Size() int64 {
	return int64(c.numSets) * int64(c.effWays) * int64(c.LineSize())
}

// setOf returns the set index for a line tag.
func (c *SetAssoc) setOf(tag uint64) int { return int(tag & c.setMask) }

// lookup finds the way holding tag, returning its index into keys/lines, or
// -1 on miss, and makes that way the first of its set's hint. Does not
// touch LRU or stats.
//
// pred[set] holds the set's two most recently found or installed ways,
// most recent first. Replayed traces interleave a few streams (merge inputs
// and output, matrix rows); the hint short-circuits repeat hits to one or
// two compares, and its second entry absorbs two streams alternating within
// one set, where a single entry would thrash. A hinted way counts only if
// its stored key equals tag, and tags are unique cache-wide (at most one
// way ever holds a given tag), so a stale hint — one whose way was dropped
// or refilled, or the zero value, way 0 of set 0 — falls through to the
// scan and can never change what lookup returns. The scan reads only the
// dense keys array; an empty way's key is invalidKey, which no real tag
// equals, so no separate validity check is needed.
func (c *SetAssoc) lookup(tag uint64) int {
	if i := c.probe(tag); i >= 0 {
		return i
	}
	i := c.scan(tag)
	if i >= 0 {
		c.hint(tag, i)
	}
	return i
}

// probe is lookup limited to the two hinted ways: it returns the hinted way
// holding tag, moved to the front of the hint, or -1.
func (c *SetAssoc) probe(tag uint64) int {
	p := &c.pred[c.setOf(tag)]
	if i := int(p[0]); c.keys[i] == tag {
		return i
	}
	if i := int(p[1]); c.keys[i] == tag {
		p[0], p[1] = p[1], p[0]
		return i
	}
	return -1
}

// scan is lookup without the hint: it searches tag's set and leaves the
// hint alone. Another core's coherence action looks into an L1 this way,
// so an L1's hint moves only with its own core's accesses.
func (c *SetAssoc) scan(tag uint64) int {
	base := c.setOf(tag) * c.ways
	keys := c.keys[base : base+c.effWays]
	for w := range keys {
		if keys[w] == tag {
			return base + w
		}
	}
	return -1
}

// hint pushes way i onto the front of tag's set hint.
func (c *SetAssoc) hint(tag uint64, i int) {
	p := &c.pred[c.setOf(tag)]
	p[1], p[0] = p[0], int32(i)
}

// touch marks a line as most recently used.
func (c *SetAssoc) touch(ln *line) {
	c.clock++
	ln.lastUse = c.clock
}

// victim selects the way to evict in tag's set, returning its index: an
// invalid way if any, else the LRU way among powered-on ways.
func (c *SetAssoc) victim(tag uint64) int {
	base := c.setOf(tag) * c.ways
	lru := -1
	var lruUse uint64
	for w := 0; w < c.effWays; w++ {
		i := base + w
		if c.keys[i] == invalidKey {
			return i
		}
		if lru < 0 || c.lines[i].lastUse < lruUse {
			lru, lruUse = i, c.lines[i].lastUse
		}
	}
	return lru
}

// install fills way i with a fresh line holding tag (flags cleared) and
// returns the line for the caller to set ownership bits. The previous
// occupant, if any, is simply overwritten — eviction bookkeeping is the
// caller's job (see Hierarchy.fillL1/fillL2).
func (c *SetAssoc) install(i int, tag uint64) *line {
	c.keys[i] = tag
	c.lines[i] = line{}
	c.hint(tag, i)
	return &c.lines[i]
}

// clear drops way i, returning whether the dropped line was dirty.
func (c *SetAssoc) clear(i int) (wasDirty bool) {
	c.keys[i] = invalidKey
	return c.lines[i].dirty
}

// ForEachValid calls fn for every valid powered-on line. Used for occupancy
// and working-set accounting.
func (c *SetAssoc) ForEachValid(fn func(lineAddr mem.Addr, dirty bool)) {
	for s := 0; s < c.numSets; s++ {
		base := s * c.ways
		for w := 0; w < c.effWays; w++ {
			i := base + w
			if c.keys[i] != invalidKey {
				fn(mem.Addr(c.keys[i]<<c.lineShift), c.lines[i].dirty)
			}
		}
	}
}

// CountValid returns the number of resident lines, total and those whose
// address belongs to space.
func (c *SetAssoc) CountValid(space mem.SpaceID) (total, inSpace int) {
	c.ForEachValid(func(a mem.Addr, _ bool) {
		total++
		if mem.SpaceOf(a) == space {
			inSpace++
		}
	})
	return
}
