package workloads

import (
	"sync"

	"repro/internal/obs"
)

// Pool memoizes built instances by Spec.Fingerprint so the N scheduler arms
// of one (config, spec) experiment point — and repeats of the spec across
// experiments — share a single Build instead of reconstructing an identical
// DAG and dataset per run. An instance handed out by Acquire is exclusively
// owned until Release; Acquire re-arms it (Instance.Reset) before returning,
// so a pooled instance is indistinguishable from a fresh build and results
// stay byte-identical with the pool on or off.
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
// Instances are megabytes each, so the idle side of the pool is bounded by a
// byte budget: Release deposits a copy only while the estimated idle bytes
// fit, evicting least-recently-released instances (across all keys) to make
// room, and counting every eviction. Checked-out instances never count
// against the budget — they are alive regardless of pooling.
type Pool struct {
	mu      sync.Mutex
	budget  uint64
	seq     uint64
	size    uint64 // estimated bytes of idle instances
	idle    map[string][]pooled
	out     map[string]int // checked-out copies per key, for the contended stat
	hits    int64
	misses  int64
	cont    int64
	evicts  int64
	dropped int64
}

// pooled is one idle instance with its LRU sequence and size estimate.
type pooled struct {
	in   *Instance
	seq  uint64
	cost uint64
}

// DefaultPoolBudget bounds DefaultPool's idle instances. The full-size sweep
// touches ~20 distinct specs totalling well under this, so in practice
// nothing evicts; the budget exists so pathological sweeps (many huge specs)
// degrade to bounded memory rather than holding every instance ever built.
const DefaultPoolBudget = 256 << 20

// DefaultPool is the process-wide instance pool the experiment layer routes
// through (see internal/exp).
var DefaultPool = NewPool(DefaultPoolBudget)

// NewPool returns a pool whose idle instances are bounded to budgetBytes.
func NewPool(budgetBytes uint64) *Pool {
	return &Pool{
		budget: budgetBytes,
		idle:   map[string][]pooled{},
		out:    map[string]int{},
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

// Acquire returns an armed instance of spec, reusing an idle pooled copy
// when one exists and building otherwise. The caller owns the instance
// exclusively until Release. A nil pool always builds fresh (the pool-off
// escape hatch for benchmarks and tests).
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
	key := spec.Fingerprint()
	p.mu.Lock()
	if free := p.idle[key]; len(free) > 0 {
		// Most-recently-released first: its data is likeliest still warm in
		// the host caches, and LRU eviction wants the old end anyway.
		e := free[len(free)-1]
		p.idle[key] = free[:len(free)-1]
		p.size -= e.cost
		p.out[key]++
		p.hits++
		p.mu.Unlock()
		endAcq()
		endReset := sp.StartPhase(obs.PhaseReset)
		e.in.Reset()
		endReset()
		return e.in
	}
	p.misses++
	if p.out[key] > 0 {
		p.cont++
	}
	p.out[key]++
	p.mu.Unlock()
	endAcq()
	endBuild := sp.StartPhase(obs.PhaseBuild)
	defer endBuild()
	return Build(spec)
}

// Release returns an instance to the pool's idle set for later reuse,
// evicting least-recently-released instances if the byte budget requires
// it. Do not release an instance whose run failed verification — drop it
// instead. Releasing to a nil pool is a no-op.
func (p *Pool) Release(in *Instance) {
	if p == nil {
		return
	}
	key := in.Spec.Fingerprint()
	cost := instanceCost(in)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.out[key] > 0 {
		p.out[key]--
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
	key := in.Spec.Fingerprint()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.out[key] > 0 {
		p.out[key]--
	}
}

// evictOldest removes the idle instance with the smallest sequence number.
// Linear scan over keys: the pool holds tens of specs, not thousands.
// Called with p.mu held; the budget check in Release guarantees the pool is
// non-empty when invoked.
func (p *Pool) evictOldest() {
	bestKey := ""
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
	free := p.idle[bestKey]
	p.size -= free[bestIdx].cost
	p.idle[bestKey] = append(free[:bestIdx], free[bestIdx+1:]...)
	if len(p.idle[bestKey]) == 0 {
		delete(p.idle, bestKey)
	}
	p.evicts++
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
