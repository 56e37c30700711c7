package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestTraceJSONLRoundTrip pins the wire schema: spans written by WriteJSONL
// must decode back field-for-field through ReadJSONL, with every phase key
// present on every line even when zero.
func TestTraceJSONLRoundTrip(t *testing.T) {
	tr := NewTracer()

	sp := tr.StartSpan("mergesort(n=4096)", "cmp16", "pdf", true)
	sp.SetKey("ab12")
	end := sp.StartPhase(PhaseBuild)
	time.Sleep(time.Millisecond)
	end()
	end = sp.StartPhase(PhaseSimulate)
	time.Sleep(time.Millisecond)
	end()
	sp.SetOutcome("computed")
	sp.Finish()

	// A hit-shaped span: one phase, no key.
	sp2 := tr.StartSpan("fft(n=8192)", "cmp32", "ws", false)
	end = sp2.StartPhase(PhaseCacheLookup)
	end()
	sp2.SetOutcome("mem-hit")
	sp2.Finish()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("wrote %d lines, want 2:\n%s", got, buf.String())
	}
	// Every line carries all six phase keys, zero or not.
	for _, key := range []string{"cache_lookup", "pool_acquire", "build", "reset", "simulate", "store"} {
		if got := strings.Count(buf.String(), `"`+key+`"`); got != 2 {
			t.Errorf("phase key %q appears %d times, want 2 (once per line)", key, got)
		}
	}

	decoded, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, tr.Records()) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", decoded, tr.Records())
	}

	rec := decoded[0]
	if rec.Workload != "mergesort(n=4096)" || rec.Config != "cmp16" || rec.Sched != "pdf" || !rec.Quick ||
		rec.Key != "ab12" || rec.Outcome != "computed" {
		t.Errorf("identity fields mangled: %+v", rec)
	}
	if rec.Phases.Build <= 0 || rec.Phases.Simulate <= 0 {
		t.Errorf("timed phases not positive: %+v", rec.Phases)
	}
	if rec.TotalNs < rec.Phases.Build+rec.Phases.Simulate {
		t.Errorf("total %d < phase sum %d", rec.TotalNs, rec.Phases.Build+rec.Phases.Simulate)
	}
	if sum := sumPhases(rec); rec.TotalNs < sum {
		t.Errorf("total %d < all-phase sum %d", rec.TotalNs, sum)
	}
}

func sumPhases(rec SpanRecord) int64 {
	var sum int64
	for _, v := range rec.PhaseNs() {
		sum += v
	}
	return sum
}

// ReadJSONL must reject unknown fields — the schema-drift tripwire.
func TestReadJSONLRejectsUnknownFields(t *testing.T) {
	line := `{"workload":"w","config":"c","sched":"s","quick":false,"outcome":"computed","start_unix_ns":1,"phases_ns":{"cache_lookup":0,"pool_acquire":0,"build":0,"reset":0,"simulate":0,"store":0},"total_ns":1,"surprise":true}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(line)); err == nil {
		t.Error("unknown field accepted")
	}
}

// Nil tracers and nil spans are the tracing-off path: every call must be a
// no-op, not a panic.
func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("w", "c", "s", false)
	if sp != nil {
		t.Fatal("nil tracer returned a live span")
	}
	sp.StartPhase(PhaseBuild)()
	sp.SetKey("k")
	sp.SetOutcome("computed")
	sp.Finish()
	if tr.Len() != 0 || tr.Records() != nil {
		t.Error("nil tracer accumulated state")
	}
	if s := (&Tracer{}).Summary(10); s != "" {
		t.Errorf("empty tracer summary = %q, want empty", s)
	}
}

func TestSummaryRanksSlowest(t *testing.T) {
	tr := NewTracer()
	for i, d := range []time.Duration{time.Millisecond, 30 * time.Millisecond, 5 * time.Millisecond} {
		sp := tr.StartSpan("w", "c", []string{"fast", "slowest", "mid"}[i], false)
		end := sp.StartPhase(PhaseSimulate)
		time.Sleep(d)
		end()
		sp.SetOutcome("uncached")
		sp.Finish()
	}
	s := tr.Summary(2)
	if !strings.Contains(s, "trace: 3 cells") {
		t.Errorf("missing aggregate header:\n%s", s)
	}
	iSlow := strings.Index(s, "w/c/slowest")
	iMid := strings.Index(s, "w/c/mid")
	if iSlow == -1 || iMid == -1 || iSlow > iMid {
		t.Errorf("top-2 not ranked slowest-first:\n%s", s)
	}
	if strings.Contains(s, "w/c/fast") {
		t.Errorf("n=2 summary includes third cell:\n%s", s)
	}
}
