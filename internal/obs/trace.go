package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// A Phase is one segment of a simulation cell's execution path. The six
// phases partition (almost all of) a cell's wall time:
//
//	cache-lookup  consulting the result cache's memory/disk/remote tiers —
//	              for a singleflight-deduplicated cell, the wait on the
//	              winner's computation
//	pool-acquire  instance-pool bookkeeping (lock, idle-list scan)
//	build         constructing a workload instance (DAG + data generation)
//	reset         restoring a pooled instance to its build-time bytes
//	simulate      the engine run itself, plus functional verification
//	store         persisting the computed record (disk write, remote queue)
//
// A cache hit spends everything in cache-lookup; a cold cell spends its
// time in build + simulate. The slack between the phase sum and the span
// total is closure/bookkeeping overhead, microseconds per cell (pinned by
// TestTraceByteIdentical's sum check).
type Phase int

const (
	PhaseCacheLookup Phase = iota
	PhasePoolAcquire
	PhaseBuild
	PhaseReset
	PhaseSimulate
	PhaseStore
	NumPhases
)

// phaseNames are the stable external names, used in the summary. The JSONL
// schema uses SpanRecord's field names.
var phaseNames = [NumPhases]string{
	"cache-lookup", "pool-acquire", "build", "reset", "simulate", "store",
}

// A Span records one cell's execution: its identity, how it was resolved,
// and wall time split by phase. A span is owned by the goroutine executing
// the cell — its methods are not safe for concurrent use on one span — and
// is handed back to its Tracer by Finish.
//
// All methods are nil-safe: a nil *Span (tracing off) makes every call a
// cheap no-op, so instrumented code never branches on whether tracing is
// enabled.
type Span struct {
	tracer   *Tracer
	workload string
	config   string
	sched    string
	quick    bool
	key      string
	outcome  string
	start    time.Time
	phases   [NumPhases]time.Duration
	total    time.Duration
}

// nop is the shared no-op phase terminator returned for nil spans.
var nop = func() {}

// StartPhase begins timing one phase and returns the function that ends it.
// Phases may be entered repeatedly; durations accumulate.
func (sp *Span) StartPhase(p Phase) func() {
	if sp == nil {
		return nop
	}
	t0 := Now()
	return func() { sp.phases[p] += Since(t0) }
}

// SetKey attaches the cell's content address (cache key) to the span.
func (sp *Span) SetKey(key string) {
	if sp != nil {
		sp.key = key
	}
}

// SetOutcome records how the cell was resolved: "mem-hit", "disk-hit",
// "remote-hit", "dedup", "computed", or "uncached" (computed with no cache
// attached).
func (sp *Span) SetOutcome(outcome string) {
	if sp != nil {
		sp.outcome = outcome
	}
}

// Finish stamps the span's total wall time and delivers it to its Tracer.
// Call exactly once, after the cell completes.
func (sp *Span) Finish() {
	if sp == nil {
		return
	}
	sp.total = Since(sp.start)
	sp.tracer.add(sp)
}

// A Tracer collects cell spans. Create one per traced run (StartSpan on a
// nil *Tracer returns a nil span, so the tracing-off path costs one nil
// check per cell), then render the collected spans with WriteJSONL and
// Summary once the run's fan-out has completed.
type Tracer struct {
	mu    sync.Mutex
	spans []*Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// StartSpan opens a span for one cell. workload/config/sched name the cell
// (the same triple the cache key fingerprints); quick tags reduced-size
// runs. Returns nil — a no-op span — on a nil tracer.
func (t *Tracer) StartSpan(workload, config, sched string, quick bool) *Span {
	if t == nil {
		return nil
	}
	return &Span{tracer: t, workload: workload, config: config, sched: sched, quick: quick, start: Now()}
}

// add delivers a finished span.
func (t *Tracer) add(sp *Span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Len returns the number of finished spans collected so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// SpanRecord is the JSONL wire form of one span — the schema `sweep
// -trace-out` emits, one object per line. Every phase field is always
// present (zero durations included), so consumers need no key-existence
// logic; phase durations and the total are nanoseconds.
type SpanRecord struct {
	Workload    string `json:"workload"`
	Config      string `json:"config"`
	Sched       string `json:"sched"`
	Quick       bool   `json:"quick"`
	Key         string `json:"key,omitempty"`
	Outcome     string `json:"outcome"`
	StartUnixNs int64  `json:"start_unix_ns"`
	Phases      struct {
		CacheLookup int64 `json:"cache_lookup"`
		PoolAcquire int64 `json:"pool_acquire"`
		Build       int64 `json:"build"`
		Reset       int64 `json:"reset"`
		Simulate    int64 `json:"simulate"`
		Store       int64 `json:"store"`
	} `json:"phases_ns"`
	TotalNs int64 `json:"total_ns"`
}

// PhaseNs returns the record's phase durations indexed by Phase, matching
// Span.phases.
func (rec *SpanRecord) PhaseNs() [NumPhases]int64 {
	return [NumPhases]int64{
		rec.Phases.CacheLookup, rec.Phases.PoolAcquire, rec.Phases.Build,
		rec.Phases.Reset, rec.Phases.Simulate, rec.Phases.Store,
	}
}

// record converts a finished span to its wire form.
func (sp *Span) record() SpanRecord {
	rec := SpanRecord{
		Workload:    sp.workload,
		Config:      sp.config,
		Sched:       sp.sched,
		Quick:       sp.quick,
		Key:         sp.key,
		Outcome:     sp.outcome,
		StartUnixNs: sp.start.UnixNano(),
		TotalNs:     int64(sp.total),
	}
	rec.Phases.CacheLookup = int64(sp.phases[PhaseCacheLookup])
	rec.Phases.PoolAcquire = int64(sp.phases[PhasePoolAcquire])
	rec.Phases.Build = int64(sp.phases[PhaseBuild])
	rec.Phases.Reset = int64(sp.phases[PhaseReset])
	rec.Phases.Simulate = int64(sp.phases[PhaseSimulate])
	rec.Phases.Store = int64(sp.phases[PhaseStore])
	return rec
}

// Records returns the collected spans in completion order as wire records.
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	for i, sp := range t.spans {
		out[i] = sp.record()
	}
	return out
}

// WriteJSONL writes one SpanRecord JSON object per line, in completion
// order. (Completion order varies with parallelism — the trace is
// telemetry, exempt from the byte-identity contract that binds stdout.)
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range t.Records() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a trace written by WriteJSONL, rejecting unknown fields
// so schema drift is caught by the round-trip test rather than silently
// zeroed.
func ReadJSONL(r io.Reader) ([]SpanRecord, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var out []SpanRecord
	for {
		var rec SpanRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
}

// Summary renders a top-n-slowest-cells table: one line per cell with its
// total and per-phase wall time, preceded by an aggregate header. Cells tie
// on total duration in completion order, so the table is stable for a given
// trace. Returns "" when no spans were collected.
func (t *Tracer) Summary(n int) string {
	recs := t.Records()
	if len(recs) == 0 {
		return ""
	}
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return recs[order[a]].TotalNs > recs[order[b]].TotalNs })
	if n > len(order) {
		n = len(order)
	}

	var agg [NumPhases]int64
	var total int64
	for _, rec := range recs {
		total += rec.TotalNs
		p := rec.PhaseNs()
		for i, v := range p {
			agg[i] += v
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d cells, %s total span time (", len(recs), fmtNs(total))
	for p := Phase(0); p < NumPhases; p++ {
		if p > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%s", phaseNames[p], fmtNs(agg[p]))
	}
	fmt.Fprintf(&b, "); slowest %d:\n", n)
	fmt.Fprintf(&b, "  %9s %9s %9s %9s %9s %9s %9s  %-10s %s\n",
		"TOTAL", "LOOKUP", "ACQUIRE", "BUILD", "RESET", "SIM", "STORE", "OUTCOME", "CELL")
	for _, i := range order[:n] {
		rec := recs[i]
		p := rec.PhaseNs()
		fmt.Fprintf(&b, "  %9s %9s %9s %9s %9s %9s %9s  %-10s %s/%s/%s\n",
			fmtNs(rec.TotalNs),
			fmtNs(p[PhaseCacheLookup]), fmtNs(p[PhasePoolAcquire]), fmtNs(p[PhaseBuild]),
			fmtNs(p[PhaseReset]), fmtNs(p[PhaseSimulate]), fmtNs(p[PhaseStore]),
			rec.Outcome, rec.Workload, rec.Config, rec.Sched)
	}
	return b.String()
}

// fmtNs renders nanoseconds compactly for the summary table.
func fmtNs(ns int64) string {
	switch {
	case ns >= int64(time.Second):
		return fmt.Sprintf("%.2fs", float64(ns)/float64(time.Second))
	case ns >= int64(time.Millisecond):
		return fmt.Sprintf("%.1fms", float64(ns)/float64(time.Millisecond))
	case ns >= int64(time.Microsecond):
		return fmt.Sprintf("%dµs", ns/int64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
