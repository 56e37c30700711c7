package workloads

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/testutil"
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

// wpool reads the pool's unlabeled wpool_<name> sample through the
// registry, as `sweep -stats` and /metrics render it.
func wpool(t *testing.T, p *Pool, name string) float64 {
	t.Helper()
	return testutil.Series(t, p.RegisterMetrics, "wpool_"+name)[""]
}

// TestPoolReusesReleasedInstance uses matmul deliberately: its leaf tasks
// accumulate into C, so if Acquire handed back a released instance without
// restoring the build-time bytes, the second run would double C and fail
// Verify inside runOn.
func TestPoolReusesReleasedInstance(t *testing.T) {
	p := NewPool(1 << 30)
	spec := smallSpec("matmul")
	p.Expect(spec) // two acquires coming: the release is wanted
	p.Expect(spec)

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

	hits, misses, cont := wpool(t, p, "hits_total"), wpool(t, p, "misses_total"), wpool(t, p, "contended_total")
	if hits != 1 || misses != 1 || cont != 0 {
		t.Fatalf("hits/misses/contended = %v/%v/%v, want 1/1/0", hits, misses, cont)
	}
}

func TestPoolContendedAcquireBuildsFresh(t *testing.T) {
	p := NewPool(1 << 30)
	spec := smallSpec("scan")
	for range 4 { // two acquires now, and two more wanting both copies after
		p.Expect(spec)
	}
	in1 := p.Acquire(spec, nil)
	in2 := p.Acquire(spec, nil) // in1 still checked out
	if in1 == in2 {
		t.Fatal("contended Acquire returned the checked-out instance")
	}
	if cont, misses := wpool(t, p, "contended_total"), wpool(t, p, "misses_total"); cont != 1 || misses != 2 {
		t.Fatalf("misses/contended = %v/%v, want 2 misses of which 1 contended", misses, cont)
	}
	p.Release(in1)
	p.Release(in2)
	if idle := wpool(t, p, "idle_instances"); idle != 2 {
		t.Fatalf("idle = %v, want both copies pooled", idle)
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
	if cont := wpool(t, p, "contended_total"); cont != 0 {
		t.Fatalf("contended = %v, want no phantom contention after Discard", cont)
	}
	p.Release(in2)
}

func TestPoolBudgetEvictsLeastRecentlyReleased(t *testing.T) {
	specA := smallSpec("mergesort")
	specB := smallSpec("quicksort")
	inA, inB := Build(specA), Build(specB)
	p := NewPool(instanceCost(inA) + instanceCost(inB) - 1)
	p.Expect(specA) // both wanted: only the budget stands in the way
	p.Expect(specB)
	p.Release(inA)
	p.Release(inB) // over budget: evicts A, the older release
	if ev, idle := wpool(t, p, "evictions_total"), wpool(t, p, "idle_instances"); ev != 1 || idle != 1 {
		t.Fatalf("evictions/idle = %v/%v, want exactly one eviction leaving one idle", ev, idle)
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
	p.Expect(in.Spec) // wanted, so only its size keeps it out
	p.Release(in)
	dropped, idle, bytes := wpool(t, p, "dropped_total"), wpool(t, p, "idle_instances"), wpool(t, p, "idle_bytes")
	if dropped != 1 || idle != 0 || bytes != 0 {
		t.Fatalf("dropped/idle/idle bytes = %v/%v/%v, want the oversize instance dropped, none idle", dropped, idle, bytes)
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
}

// TestPoolConcurrentAcquireRelease exercises the pool's locking under the
// race detector (the CI race job): concurrent acquirers must get exclusive
// instances and the counters must balance. Each goroutine announces one
// acquire more than it makes, so the drain leaves copies idle for those;
// withdrawing them empties the pool.
func TestPoolConcurrentAcquireRelease(t *testing.T) {
	p := NewPool(1 << 30)
	spec := Spec{Name: "scan", N: 256, Grain: 64, Seed: 9}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 21 {
				p.Expect(spec)
			}
			for i := 0; i < 20; i++ {
				in := p.Acquire(spec, nil)
				in.BeginRun() // mark dirty so the next Acquire must Reset
				p.Release(in)
			}
		}()
	}
	wg.Wait()
	if got := wpool(t, p, "hits_total") + wpool(t, p, "misses_total"); got != 160 {
		t.Fatalf("hits+misses = %v, want 160", got)
	}
	if idle := wpool(t, p, "idle_instances"); idle < 1 {
		t.Fatalf("idle = %v, want at least one idle instance after drain", idle)
	}
	if demand := wpool(t, p, "demand"); demand != 8 {
		t.Fatalf("demand = %v, want the 8 unmade acquires", demand)
	}
	for range 8 {
		p.Withdraw(spec)
	}
	if idle, demand := wpool(t, p, "idle_instances"), wpool(t, p, "demand"); idle != 0 || demand != 0 {
		t.Fatalf("idle/demand = %v/%v after withdrawing every announcement, want 0/0", idle, demand)
	}
}

// --- Pool demand rule --------------------------------------------------------

// poolModel is what a property test knows about a pool from the calls it
// made: announcements not yet consumed or withdrawn, and the instances it
// holds checked out.
type poolModel struct {
	want      map[Spec]int
	held      map[*Instance]bool
	acquires  int
	discarded int
}

func newPoolModel() *poolModel {
	return &poolModel{want: map[Spec]int{}, held: map[*Instance]bool{}}
}

// retire mirrors the pool's consume: one announcement of key, if any.
func (m *poolModel) retire(key Spec) {
	if m.want[key] > 0 {
		m.want[key]--
	}
}

// step applies one random pool call to p and mirrors it in m, failing on
// an acquire that hands out an unarmed, foreign or already-held instance.
// It and checkDemandBound report with Errorf and return false, so the
// concurrent test can call them off the test goroutine.
func (m *poolModel) step(t *testing.T, p *Pool, rng *rand.Rand, specs []Spec) bool {
	t.Helper()
	spec := specs[rng.IntN(len(specs))]
	key := spec
	pick := func() *Instance {
		for in := range m.held { // map order is random enough
			delete(m.held, in)
			return in
		}
		return nil
	}
	switch rng.IntN(5) {
	case 0:
		p.Expect(spec)
		m.want[key]++
	case 1:
		in := p.Acquire(spec, nil)
		m.retire(key)
		m.acquires++
		if !in.Armed() || in.Spec != spec || m.held[in] {
			t.Errorf("Acquire(%v) = %p: armed %v, spec %v, already held %v", spec, in, in.Armed(), in.Spec, m.held[in])
			return false
		}
		in.BeginRun() // dirty, so a reuse must Reset
		m.held[in] = true
	case 2:
		if in := pick(); in != nil {
			p.Release(in)
		}
	case 3:
		if in := pick(); in != nil {
			p.Discard(in)
			m.discarded++
		}
	case 4:
		p.Withdraw(spec)
		m.retire(key)
	}
	return true
}

// checkDemandBound fails if any spec's idle copies outnumber its
// outstanding demand.
func checkDemandBound(t *testing.T, p *Pool) bool {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, free := range p.idle {
		if len(free) > p.want[key] {
			t.Errorf("%s: %d idle copies for %d announced acquires", key, len(free), p.want[key])
			return false
		}
	}
	return true
}

// checkBalance fails unless the counters account for every build: each is
// checked out, idle, evicted, dropped, unwanted or discarded.
func checkBalance(t *testing.T, p *Pool, out, acquires, discarded int) {
	t.Helper()
	w := func(name string) int { return int(wpool(t, p, name)) }
	if w("hits_total")+w("misses_total") != acquires {
		t.Fatalf("hits %d + misses %d != %d acquires", w("hits_total"), w("misses_total"), acquires)
	}
	gone := w("evictions_total") + w("dropped_total") + w("unwanted_total") + discarded
	if w("misses_total") != out+w("idle_instances")+gone {
		t.Fatalf("%d builds != %d out + %d idle + %d evicted/dropped/unwanted/discarded",
			w("misses_total"), out, w("idle_instances"), gone)
	}
}

// propSpecs are four cheap specs for the property tests: two equal-sized
// scans, a histogram, and a scan too large for the budgeted pools there.
var propSpecs = []Spec{
	{Name: "scan", N: 256, Grain: 64, Seed: 1},
	{Name: "scan", N: 256, Grain: 64, Seed: 2},
	{Name: "histogram", N: 256, Grain: 64, Seed: 3},
	{Name: "scan", N: 2048, Grain: 64, Seed: 4},
}

// TestPoolDemandProperty drives random Expect/Acquire/Release/Withdraw/
// Discard sequences, half of them under a byte budget of two small scans so
// evictions and oversize drops interleave, and checks after every call that no
// spec has more idle copies than announced acquires, that wpool_demand is
// the announcements the model still holds, and that the counters balance.
// Once every held instance is released and every announcement withdrawn,
// the pool is empty.
func TestPoolDemandProperty(t *testing.T) {
	budget := 2 * instanceCost(Build(propSpecs[0]))
	reached := map[string]float64{} // summed over seeds: every branch must be taken
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		p := NewPool(1 << 30)
		if seed%2 == 0 {
			p = NewPool(budget)
		}
		m := newPoolModel()
		for range 150 {
			if !m.step(t, p, rng, propSpecs) || !checkDemandBound(t, p) {
				t.FailNow()
			}
			total := 0
			for _, n := range m.want {
				total += n
			}
			if d := wpool(t, p, "demand"); int(d) != total {
				t.Fatalf("seed %d: wpool_demand %v, model %d", seed, d, total)
			}
			checkBalance(t, p, len(m.held), m.acquires, m.discarded)
		}
		for in := range m.held {
			p.Release(in)
		}
		for _, spec := range propSpecs {
			for range m.want[spec] {
				p.Withdraw(spec)
			}
		}
		if idle, demand := wpool(t, p, "idle_instances"), wpool(t, p, "demand"); idle != 0 || demand != 0 {
			t.Fatalf("seed %d: idle/demand = %v/%v after the drain, want 0/0", seed, idle, demand)
		}
		checkBalance(t, p, 0, m.acquires, m.discarded)
		for _, name := range []string{"hits_total", "evictions_total", "dropped_total", "unwanted_total"} {
			reached[name] += wpool(t, p, name)
		}
	}
	for name, n := range reached {
		if n == 0 {
			t.Errorf("no sequence moved wpool_%s", name)
		}
	}
}

// TestPoolDemandPropertyConcurrent runs the random sequences on one pool
// from several goroutines, each announcing, acquiring and withdrawing only
// for itself, under the race detector in CI's race job. The demand bound
// holds at every step; after each goroutine drains its own holdings and
// announcements, the pool is empty and the counters balance.
func TestPoolDemandPropertyConcurrent(t *testing.T) {
	p := NewPool(1 << 30)
	models := make([]*poolModel, 4)
	var wg sync.WaitGroup
	for g := range models {
		m := newPoolModel()
		models[g] = m
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 1))
			for range 100 {
				if !m.step(t, p, rng, propSpecs) || !checkDemandBound(t, p) {
					return
				}
			}
			for in := range m.held {
				p.Release(in)
			}
			for _, spec := range propSpecs {
				for range m.want[spec] {
					p.Withdraw(spec)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	acquires, discarded := 0, 0
	for _, m := range models {
		acquires += m.acquires
		discarded += m.discarded
	}
	if idle, demand := wpool(t, p, "idle_instances"), wpool(t, p, "demand"); idle != 0 || demand != 0 {
		t.Fatalf("idle/demand = %v/%v after every goroutine drained, want 0/0", idle, demand)
	}
	checkBalance(t, p, 0, acquires, discarded)
}
