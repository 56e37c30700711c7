package exp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rcache"
)

// TestTraceByteIdentical asserts the tracer's contract: it only observes.
// Experiment output with tracing on serially, and with tracing on under
// parallel cached runs — cold, then replayed from the warm disk tier, then
// from the warm memory tier — must be byte-identical to the untraced
// quick-suite reference, and every collected span must be well-formed: one
// per cell, the pass's expected outcome, phase durations summing to
// approximately the span's wall time (the slack is closure and pprof-label
// bookkeeping, microseconds per cell).
func TestTraceByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const id = "fig1-misses"
	untraced := reference(t, id).out
	defer func(old int) { Parallelism = old }(Parallelism)
	defer func(old *rcache.Store) { Cache = old }(Cache)
	defer func(old *obs.Tracer) { Tracer = old }(Tracer)

	// Traced, serial, uncached: same bytes, spans with outcome "uncached".
	Tracer = obs.NewTracer()
	Cache = nil
	Parallelism = 1
	if got := renderAll(t, id); got != untraced {
		t.Errorf("%s: traced serial output differs from untraced:\n--- untraced ---\n%s\n--- traced ---\n%s",
			id, untraced, got)
	}
	serialSpans := Tracer.Len()
	if serialSpans == 0 {
		t.Fatal("tracer collected no spans")
	}
	checkSpans(t, Tracer, "uncached-serial", "uncached")

	// Traced, parallel, through a cold disk-backed store, then a fresh
	// store over the directory it filled (every cell a disk hit), then that
	// store again (every cell a memory hit): same bytes, one span per cell,
	// keys set.
	dir := t.TempDir()
	Parallelism = 8
	for _, pass := range []struct {
		label, outcome string
		fresh          bool // a new store over dir: an empty memory tier
	}{
		{"cold-disk", "computed", true},
		{"warm-disk", "disk-hit", true},
		{"warm-memory", "mem-hit", false},
	} {
		if pass.fresh {
			store, err := rcache.Open(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			Cache = store
		}
		Tracer = obs.NewTracer()
		if got := renderAll(t, id); got != untraced {
			t.Errorf("%s: traced parallel %s output differs from untraced", id, pass.label)
		}
		if Tracer.Len() != serialSpans {
			t.Errorf("%s run collected %d spans, serial %d — want one per cell either way",
				pass.label, Tracer.Len(), serialSpans)
		}
		checkSpans(t, Tracer, pass.label, pass.outcome)
	}

	// The JSONL wire form round-trips what the tracer holds.
	var buf bytes.Buffer
	if err := Tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != Tracer.Len() {
		t.Errorf("trace file has %d records, tracer %d spans", len(decoded), Tracer.Len())
	}
}

// checkSpans validates every collected span: identity fields present, the
// given outcome recorded, a cache key unless the run was uncached, and
// phase durations that partition the span total up to a small per-cell
// bookkeeping slack.
func checkSpans(t *testing.T, tr *obs.Tracer, label, outcome string) {
	t.Helper()
	const slack = int64(20 * time.Millisecond)
	for i, rec := range tr.Records() {
		if rec.Workload == "" || rec.Config == "" || rec.Sched == "" {
			t.Errorf("%s span %d: incomplete identity %+v", label, i, rec)
		}
		if rec.Outcome != outcome {
			t.Errorf("%s span %d: outcome %q, want %q", label, i, rec.Outcome, outcome)
		}
		if outcome != "uncached" && rec.Key == "" {
			t.Errorf("%s span %d: cached run recorded no cache key", label, i)
		}
		var sum int64
		for _, v := range rec.PhaseNs() {
			if v < 0 {
				t.Errorf("%s span %d: negative phase duration %d", label, i, v)
			}
			sum += v
		}
		if sum > rec.TotalNs {
			t.Errorf("%s span %d: phase sum %d exceeds total %d", label, i, sum, rec.TotalNs)
		}
		if rec.TotalNs-sum > slack {
			t.Errorf("%s span %d (%s): phases sum to %d of %d ns — more than bookkeeping slack unaccounted",
				label, i, rec.Outcome, sum, rec.TotalNs)
		}
	}
}
