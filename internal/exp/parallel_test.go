package exp

import (
	"testing"

	"repro/internal/rcache"
)

// TestParallelMatchesSerial asserts the tentpole guarantee: running the
// experiment suite through the runner at any parallelism yields output
// byte-identical to the serial path. Serial, 2 and 8 workers are each
// compared with the quick-suite reference, which ran at GOMAXPROCS.
// fig1-misses exercises the paired pdf/ws sweep shape, a4-stealpolicy the
// one-run-per-row shape, and t4-multiprog the bespoke two-arm fan-out (each
// arm owns a stateful engine pair, so any shared mutable state between arms
// would show up here as serial/parallel divergence).
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	defer func(old int) { Parallelism = old }(Parallelism)

	for _, id := range []string{"fig1-misses", "a4-stealpolicy", "t4-multiprog"} {
		want := reference(t, id).out
		for _, p := range []int{1, 2, 8} {
			if p == refParallel {
				continue
			}
			Parallelism = p
			if got := renderAll(t, id); got != want {
				t.Errorf("%s: output at Parallelism=%d differs from the reference at %d:\n--- reference ---\n%s\n--- got ---\n%s",
					id, p, refParallel, want, got)
			}
		}
	}
}

// TestCachedMatchesUncached asserts the cache's core guarantee: experiment
// output from a cold, a memory-warm and a disk-warm store is byte-identical
// to the quick-suite reference, at serial and parallel fan-out — a cached
// Run is exactly the record a fresh simulation would produce. (The uncached
// renders of TestParallelMatchesSerial, TestPooledMatchesUnpooled and
// TestTraceByteIdentical match the same reference.) It also pins the
// warm-sweep accounting the CI smoke job relies on: a repeat visit of the
// same cells must be all hits, whether they come from the in-process map or
// from a reopened disk store.
func TestCachedMatchesUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const id = "fig1-misses"
	want := reference(t, id).out
	defer func(old int) { Parallelism = old }(Parallelism)
	defer func(old *rcache.Store) { Cache = old }(Cache)

	// Cold store, serial: first visit simulates every cell and writes it
	// through to disk.
	dir := t.TempDir()
	s1, err := rcache.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	Cache = s1
	Parallelism = 1
	if got := renderAll(t, id); got != want {
		t.Errorf("%s: cold cached output differs from the reference:\n--- reference ---\n%s\n--- cached ---\n%s", id, want, got)
	}
	if st := s1.Stats(); st.Hits() != 0 || st.Misses == 0 {
		t.Errorf("cold pass stats %+v: expected only misses", st)
	}

	// Warm, parallel: same store, every cell must hit the memory tier, bytes
	// must not move.
	misses := s1.Stats().Misses
	Parallelism = 8
	if got := renderAll(t, id); got != want {
		t.Errorf("%s: warm cached output differs from the reference", id)
	}
	if st := s1.Stats(); st.Misses != misses || st.MemHits == 0 {
		t.Errorf("warm pass re-simulated cells: stats %+v", st)
	}

	// Disk round trip: reopen the directory in a fresh store (empty memory
	// tier) and replay — all disk hits, same bytes.
	s2, err := rcache.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	Cache = s2
	if got := renderAll(t, id); got != want {
		t.Errorf("%s: disk-warm output differs from the reference", id)
	}
	if st := s2.Stats(); st.Misses != 0 || st.DiskHits == 0 {
		t.Errorf("disk-warm stats %+v: want pure disk hits", st)
	}
}
