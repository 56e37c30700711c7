package main

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/rcache"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The layer ladder times single layers from outside, after the traced
// rounds: scheduler queue operations and engine self time on a fixed sample
// of the workload's own cells, cache.Hierarchy.AccessLine per hit/miss
// class, and (where the workload has them) grid definition resolution.

// timedSched wraps a scheduler and times every Push and Pop, keeping Pops
// that found a task apart from idle polls that found none. It only
// observes: replaying a cell through it must reproduce the cell's result.
type timedSched struct {
	core.Scheduler
	pushes, pops          int64
	pushNs, popNs, idleNs int64
}

func (s *timedSched) Push(from core.CoreID, n *dag.Node) {
	t0 := time.Now()
	s.Scheduler.Push(from, n)
	s.pushNs += int64(time.Since(t0))
	s.pushes++
}

func (s *timedSched) Pop(c core.CoreID) (*dag.Node, int64) {
	t0 := time.Now()
	n, o := s.Scheduler.Pop(c)
	d := int64(time.Since(t0))
	if n == nil {
		s.idleNs += d
		return n, o
	}
	s.popNs += d
	s.pops++
	return n, o
}

// sampleCell is one cell chosen for replay, with the result the program
// produced for it.
type sampleCell struct {
	cell grid.Cell
	key  string
	want metrics.Run
}

// replayStats accumulates the sample replays.
type replayStats struct {
	cells                int
	tasks, instr         int64
	pushes, pops         int64
	pushNs, popNs, simNs int64
	idleNs               int64
	buildNs, resetNs     int64
}

// Sample bounds: at most sampleCells cells, and no more simulated
// instructions than sampleInstr in total, taken in key order — a fixed
// sample for a fixed workload and seed.
const (
	sampleCells = 6
	sampleInstr = 30_000_000
)

// chooseSamples picks the replay sample from the traced cell spans: the
// distinct cells resolve can map back to a (config, spec, scheduler) whose
// content address matches the span's key, in key order, within the bounds.
func chooseSamples(recs []cellRec, resolve func(cellRec) (grid.Cell, bool)) ([]sampleCell, error) {
	byKey := map[string]cellRec{}
	for _, c := range recs {
		if c.rec.Key != "" {
			byKey[c.rec.Key] = c
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []sampleCell
	var instr int64
	for _, k := range keys {
		c := byKey[k]
		cell, ok := resolve(c)
		if !ok {
			continue
		}
		want, err := stored(c.store, k)
		if err != nil {
			return nil, err
		}
		if instr+want.Instructions > sampleInstr {
			continue
		}
		instr += want.Instructions
		out = append(out, sampleCell{cell: cell, key: k, want: want})
		if len(out) == sampleCells {
			break
		}
	}
	return out, nil
}

var errNotStored = errors.New("cell not in the store that resolved it")

// stored returns the record a store resolved for key, without computing.
func stored(s *rcache.Store, key string) (metrics.Run, error) {
	var k rcache.Key
	b, err := hex.DecodeString(key)
	if err != nil || len(b) != len(k) {
		return metrics.Run{}, fmt.Errorf("bad cell key %q", key)
	}
	copy(k[:], b)
	return s.Do(k, func() (metrics.Run, error) { return metrics.Run{}, errNotStored })
}

// registryCell maps a cell span of a quick registry experiment back to its
// cell: the spec is spelled out in the span's workload field, and the
// machine must be a default per-core-count configuration. The content
// address proves the reconstruction exact.
func registryCell(c cellRec) (grid.Cell, bool) {
	name, rest, ok := strings.Cut(c.rec.Workload, "(")
	if !ok {
		return grid.Cell{}, false
	}
	spec := workloads.Spec{Name: name}
	if _, err := fmt.Sscanf(rest, "n=%d,grain=%d,iters=%d,seed=%d,space=%d)",
		&spec.N, &spec.Grain, &spec.Iters, &spec.Seed, &spec.SpaceID); err != nil {
		return grid.Cell{}, false
	}
	var cores int
	if _, err := fmt.Sscanf(c.rec.Config, "default-%dc", &cores); err != nil || cores < 1 || cores > 64 {
		return grid.Cell{}, false
	}
	cfg := machine.Default(cores)
	if rcache.KeyOf(cfg, spec, c.rec.Sched, exp.Seed, true).String() != c.rec.Key {
		return grid.Cell{}, false
	}
	return grid.Cell{Config: cfg, Spec: spec, Sched: c.rec.Sched}, true
}

// replay simulates each sample cell again — fresh build, the timing wrapper
// around its scheduler — and checks the result equals the program's.
func replay(samples []sampleCell) (replayStats, []string) {
	var st replayStats
	var failures []string
	for _, s := range samples {
		t0 := time.Now()
		in := workloads.Build(s.cell.Spec)
		st.buildNs += int64(time.Since(t0))
		in.BeginRun()
		ts := &timedSched{Scheduler: core.ByName(s.cell.Sched, exp.OverheadsOf(s.cell.Config), exp.Seed)}
		t0 = time.Now()
		r := sim.New(s.cell.Config, in.Graph, ts, nil).Run()
		st.simNs += int64(time.Since(t0))
		r.Workload = s.cell.Spec.Name
		if err := in.Verify(); err != nil {
			failures = append(failures, fmt.Sprintf("replay of %s: %v", s.key[:12], err))
		}
		t0 = time.Now()
		in.Reset()
		st.resetNs += int64(time.Since(t0))
		if r != s.want {
			failures = append(failures, fmt.Sprintf("replay of %s under the timing wrapper differs from the program's result: %+v vs %+v", s.key[:12], r, s.want))
		}
		st.cells++
		st.tasks += r.Tasks
		st.instr += r.Instructions
		st.pushes += ts.pushes
		st.pops += ts.pops
		st.pushNs += ts.pushNs
		st.popNs += ts.popNs
		st.idleNs += ts.idleNs
	}
	return st, failures
}

// clockNs estimates the cost of one time.Now/time.Since pair, the overhead
// each timed scheduler call carries.
func clockNs() float64 {
	const n = 200_000
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	_ = sink
	return float64(time.Since(t0).Nanoseconds()) / n
}

// accessClasses times cache.Hierarchy.AccessLine per hit/miss class on the
// default 8-core machine, checking from the level counters that every timed
// access fell in its class. Values are ns per access, medians of 5 reps.
func accessClasses() (map[string]float64, error) {
	const n = 200_000
	cfg := machine.Default(8)
	out := map[string]float64{}
	var classErr error
	class := func(name string, prep func(h *cache.Hierarchy), body func(h *cache.Hierarchy, i int, now int64) int64, check func(before, after [3]cache.LevelStats) bool) {
		var reps []float64
		for rep := 0; rep < 5; rep++ {
			h := cache.New(cfg.CacheParams())
			prep(h)
			before := [3]cache.LevelStats{h.L1(0).Stats, h.L1(1).Stats, h.L2().Stats}
			now := int64(1 << 20)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				now = body(h, i, now)
			}
			reps = append(reps, float64(time.Since(t0).Nanoseconds())/n)
			after := [3]cache.LevelStats{h.L1(0).Stats, h.L1(1).Stats, h.L2().Stats}
			if !check(before, after) && classErr == nil {
				classErr = fmt.Errorf("AccessLine class %s: accesses fell outside the class (%+v -> %+v)", name, before, after)
			}
		}
		out[name] = summarize(reps).value
	}
	l1Lines := uint64(cfg.L1Size) / uint64(cfg.LineSize)
	// l1hit: a handful of resident lines read over and over.
	class("l1hit", func(h *cache.Hierarchy) {
		for tag := uint64(0); tag < 16; tag++ {
			h.AccessLine(0, tag, false, 0)
		}
	}, func(h *cache.Hierarchy, i int, now int64) int64 {
		h.AccessLine(0, uint64(i&15), false, now)
		return now + 1
	}, func(b, a [3]cache.LevelStats) bool { return a[0].Hits-b[0].Hits == n && a[0].Misses == b[0].Misses })
	// l2hit: a cyclic read of 4x the L1's lines — always evicted from the
	// L1 before reuse, always resident in the L2.
	ring := 4 * l1Lines
	class("l2hit", func(h *cache.Hierarchy) {
		for tag := uint64(0); tag < ring; tag++ {
			h.AccessLine(0, tag, false, 0)
		}
	}, func(h *cache.Hierarchy, i int, now int64) int64 {
		h.AccessLine(0, uint64(i)%ring, false, now)
		return now + 1
	}, func(b, a [3]cache.LevelStats) bool {
		return a[0].Misses-b[0].Misses == n && a[2].Hits-b[2].Hits == n && a[2].Misses == b[2].Misses
	})
	// l2miss: a read stream that never repeats a line, issued in order as
	// an in-order core would (each access starts when the last completes).
	class("l2miss", func(*cache.Hierarchy) {}, func(h *cache.Hierarchy, i int, now int64) int64 {
		return h.AccessLine(0, uint64(i), false, now)
	}, func(b, a [3]cache.LevelStats) bool { return a[2].Misses-b[2].Misses == n })
	// coherence: two cores alternately write one line, so every access
	// misses its L1, hits the L2 and invalidates the other core's copy.
	class("coherence", func(*cache.Hierarchy) {}, func(h *cache.Hierarchy, i int, now int64) int64 {
		h.AccessLine(i&1, 7, true, now)
		return now + 1
	}, func(b, a [3]cache.LevelStats) bool {
		return a[2].Hits-b[2].Hits >= n-1 && a[0].Invalidations-b[0].Invalidations >= n/2-1
	})
	return out, classErr
}

// timeResolve times grid.ParseDef + Def.Resolve on each definition, in µs.
func timeResolve(defs [][]byte) ([]float64, error) {
	var us []float64
	for _, raw := range defs {
		t0 := time.Now()
		d, err := grid.ParseDef(raw)
		if err == nil {
			_, err = d.Resolve(exp.Seed)
		}
		if err != nil {
			return nil, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return us, nil
}
