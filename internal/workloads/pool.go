package workloads

import (
	"slices"
	"sync"

	"repro/internal/obs"
)

// Pool memoizes built instances by Spec (equal Specs build identical
// instances) so the N scheduler arms of one (config, spec) experiment point
// — and the later cells of a grid that repeat the spec — share a single
// Build instead of reconstructing an identical DAG and dataset per run. An
// instance handed out by Acquire is exclusively owned until Release;
// Acquire re-arms it (Instance.Reset) before returning, so a pooled
// instance is indistinguishable from a fresh build and results stay
// byte-identical with the pool on or off.
//
// Idle copies are kept for announced demand only. A caller announces each
// acquire it will make (Expect); Acquire consumes one announcement, and a
// caller that resolves its work without acquiring (a cell-cache hit, a
// cancelled cell) withdraws one (Withdraw). Release deposits a copy only
// while the spec's outstanding demand exceeds its idle copies, and drops it
// otherwise (wpool_unwanted_total); a withdrawal that leaves more idle
// copies than demand drops the excess the same way. So a spec's idle copies
// never outnumber the acquires still coming for it, and an instance nothing
// will ask for again is garbage at once instead of sitting idle. Unannounced
// acquires (cmpsim's single cell) still work; their releases just drop.
//
// Contention policy: when a caller wants a spec whose every copy is checked
// out (or still building), Acquire builds a private copy immediately instead
// of parking rcache-style on the in-flight user. That is a measured choice,
// not an oversight: simulation dominates construction by 10-1000x on this
// suite (see DESIGN.md), so parking a scheduler arm behind a sibling's
// multi-hundred-millisecond simulation to save a few milliseconds of build
// would invert the economics and serialize the runner's parallel arms. Build
// dedup therefore happens at release time — returned copies satisfy later
// acquires — and the contended-build count is surfaced as
// wpool_contended_total so the trade-off stays observable.
//
// Instances are megabytes each, so the idle side of the pool is also bounded
// by a byte budget, a backstop behind demand: Release deposits a wanted copy
// only while the estimated idle bytes fit, evicting least-recently-released
// instances (across all keys) to make room, and counting every eviction.
// Checked-out instances never count against the budget — they are alive
// regardless of pooling.
type Pool struct {
	mu       sync.Mutex
	budget   uint64
	seq      uint64
	size     uint64 // estimated bytes of idle instances
	idle     map[Spec][]pooled
	out      map[Spec]int // checked-out copies per key, for the contended stat
	want     map[Spec]int // announced acquires not yet made or withdrawn, per key
	hits     int64
	misses   int64
	cont     int64
	evicts   int64
	dropped  int64
	unwanted int64
}

// pooled is one idle instance with its LRU sequence and size estimate.
type pooled struct {
	in   *Instance
	seq  uint64
	cost uint64
}

// DefaultPoolBudget bounds DefaultPool's idle instances. Demand keeps far
// fewer idle than this (a grid's specs, one block at a time); the budget
// exists so pathological announcements (many huge specs wanted at once)
// degrade to bounded memory rather than holding every copy wanted.
const DefaultPoolBudget = 256 << 20

// DefaultPool is the process-wide instance pool the experiment layer routes
// through (see internal/exp).
var DefaultPool = NewPool(DefaultPoolBudget)

// NewPool returns a pool whose idle instances are bounded to budgetBytes.
func NewPool(budgetBytes uint64) *Pool {
	return &Pool{
		budget: budgetBytes,
		idle:   map[Spec][]pooled{},
		out:    map[Spec]int{},
		want:   map[Spec]int{},
	}
}

// instanceCost estimates an instance's memory: the simulated arrays (live
// copy + frozen snapshot) plus a per-node graph overhead (Node struct,
// label, closure). An estimate is fine — the budget bounds order of
// magnitude, not bytes.
const nodeCost = 192

func instanceCost(in *Instance) uint64 {
	return 2*in.Space.TrackedBytes() + nodeCost*uint64(in.Graph.Len())
}

// Expect announces one acquire of spec that the caller will make later, or
// withdraw. Until then a released copy of spec may stay idle for it.
// Announcing to a nil pool is a no-op.
func (p *Pool) Expect(spec Spec) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.want[spec]++
}

// Withdraw takes back one announcement of spec that no acquire will
// consume, and drops idle copies of spec that outnumber the demand left.
// Withdrawing with nothing announced, or from a nil pool, is a no-op.
func (p *Pool) Withdraw(spec Spec) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.consume(spec)
	for len(p.idle[spec]) > p.want[spec] {
		p.removeIdle(spec, 0) // oldest first: idle copies are in release order
		p.unwanted++
	}
}

// consume retires one announcement of key, if any. Called with p.mu held.
func (p *Pool) consume(key Spec) {
	if p.want[key]--; p.want[key] <= 0 {
		delete(p.want, key)
	}
}

// checkIn ends one checkout of key. Called with p.mu held.
func (p *Pool) checkIn(key Spec) {
	if p.out[key]--; p.out[key] <= 0 {
		delete(p.out, key)
	}
}

// Acquire returns an armed instance of spec, reusing an idle pooled copy
// when one exists and building otherwise, and consumes one announcement of
// spec. The caller owns the instance exclusively until Release. A nil pool
// always builds fresh (the pool-off escape hatch for benchmarks and tests).
//
// sp is an optional cell span (nil records nothing): pool bookkeeping is
// timed as its pool-acquire phase, and the arming work as its reset phase
// (idle hit) or build phase (fresh construction). The span only observes;
// which instance is returned never depends on it.
func (p *Pool) Acquire(spec Spec, sp *obs.Span) *Instance {
	if p == nil {
		end := sp.StartPhase(obs.PhaseBuild)
		defer end()
		return Build(spec)
	}
	endAcq := sp.StartPhase(obs.PhasePoolAcquire)
	p.mu.Lock()
	p.consume(spec)
	if free := p.idle[spec]; len(free) > 0 {
		// Most-recently-released first: its data is likeliest still warm in
		// the host caches, and LRU eviction wants the old end anyway.
		e := p.removeIdle(spec, len(free)-1)
		p.out[spec]++
		p.hits++
		p.mu.Unlock()
		endAcq()
		endReset := sp.StartPhase(obs.PhaseReset)
		e.in.Reset()
		endReset()
		return e.in
	}
	p.misses++
	if p.out[spec] > 0 {
		p.cont++
	}
	p.out[spec]++
	p.mu.Unlock()
	endAcq()
	endBuild := sp.StartPhase(obs.PhaseBuild)
	defer endBuild()
	return Build(spec)
}

// Release returns an instance to the pool's idle set while an announced
// acquire of its spec has no idle copy waiting for it, evicting
// least-recently-released instances if the byte budget requires it; with no
// such acquire pending it drops the instance. Do not release an instance
// whose run failed verification — Discard it instead. Releasing to a nil
// pool is a no-op.
func (p *Pool) Release(in *Instance) {
	if p == nil {
		return
	}
	key := in.Spec
	cost := instanceCost(in)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.checkIn(key)
	if len(p.idle[key]) >= p.want[key] {
		p.unwanted++
		return
	}
	if cost > p.budget {
		p.dropped++
		return
	}
	for p.size+cost > p.budget {
		p.evictOldest()
	}
	p.seq++
	p.idle[key] = append(p.idle[key], pooled{in: in, seq: p.seq, cost: cost})
	p.size += cost
}

// Discard relinquishes a checked-out instance without returning it to the
// idle set — the path for instances whose run failed verification (their
// data, or worse their build, is suspect). It balances the checked-out
// count so later acquires of the spec are not misreported as contended;
// the instance itself is left for the garbage collector.
func (p *Pool) Discard(in *Instance) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.checkIn(in.Spec)
}

// evictOldest removes the idle instance with the smallest sequence number.
// Linear scan over keys: the pool holds tens of specs, not thousands.
// Called with p.mu held; the budget check in Release guarantees the pool is
// non-empty when invoked.
func (p *Pool) evictOldest() {
	var bestKey Spec
	bestIdx := -1
	var bestSeq uint64
	for k, free := range p.idle {
		for i, e := range free {
			if bestIdx == -1 || e.seq < bestSeq {
				bestKey, bestIdx, bestSeq = k, i, e.seq
			}
		}
	}
	if bestIdx == -1 {
		panic("workloads: pool eviction with no idle instances")
	}
	p.removeIdle(bestKey, bestIdx)
	p.evicts++
}

// removeIdle takes copy i of key out of the idle set. slices.Delete clears
// the vacated slot, so the backing array never pins a dropped instance.
// Called with p.mu held.
func (p *Pool) removeIdle(key Spec, i int) pooled {
	free := p.idle[key]
	e := free[i]
	if free = slices.Delete(free, i, i+1); len(free) == 0 {
		delete(p.idle, key)
	} else {
		p.idle[key] = free
	}
	p.size -= e.cost
	return e
}

// RegisterMetrics exposes the pool's counters on a registry as the wpool_*
// family, the pool's only counter surface. Each collector takes the pool
// lock for one read at render time.
func (p *Pool) RegisterMetrics(r *obs.Registry) {
	read := func(f func() int64) func() int64 {
		return func() int64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return f()
		}
	}
	r.CounterFunc("wpool_hits_total", "", "acquires served by resetting an idle instance",
		read(func() int64 { return p.hits }))
	r.CounterFunc("wpool_misses_total", "", "acquires that built a fresh instance",
		read(func() int64 { return p.misses }))
	r.CounterFunc("wpool_contended_total", "", "builds issued while copies of the spec were checked out",
		read(func() int64 { return p.cont }))
	r.CounterFunc("wpool_evictions_total", "", "idle instances evicted for the byte budget",
		read(func() int64 { return p.evicts }))
	r.CounterFunc("wpool_dropped_total", "", "released instances too large to ever deposit",
		read(func() int64 { return p.dropped }))
	r.CounterFunc("wpool_unwanted_total", "", "released or idle instances dropped because no announced acquire wanted them",
		read(func() int64 { return p.unwanted }))
	r.GaugeFunc("wpool_demand", "", "announced acquires not yet made or withdrawn",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			n := 0
			for _, w := range p.want {
				n += w
			}
			return float64(n)
		})
	r.GaugeFunc("wpool_idle_instances", "", "instances currently idle in the pool",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			n := 0
			for _, free := range p.idle {
				n += len(free)
			}
			return float64(n)
		})
	r.GaugeFunc("wpool_idle_bytes", "", "estimated bytes of idle instances",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.size)
		})
	// Build-side telemetry lives at package level (Build is reachable
	// without a pool), but belongs to the same family for readers.
	r.CounterFunc("wpool_builds_total", "", "workload instances constructed since process start",
		func() int64 { n, _ := BuildCount(); return n })
	r.CounterFunc("wpool_build_nanoseconds_total", "", "wall time spent constructing instances (obs.Now)",
		func() int64 { _, ns := BuildCount(); return ns })
}
