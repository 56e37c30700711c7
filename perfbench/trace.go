package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rcache"
	"repro/internal/workloads"
)

// tracing collects everything the traced half of a run observes: the
// harness's own spans around each call into a layer, the program's per-cell
// spans (exp.Tracer and per-job tracers), handler timings, and registry
// snapshots of every store, pool and manager the traced rounds created. All
// of it stays in memory until the run ends. A nil *tracing is the untraced
// run: every method is a no-op.
type tracing struct {
	e *env

	mu    sync.Mutex
	spans []span
	cells []cellRec

	regBefore, regAfter map[string]float64
	buildsBefore        [2]int64
	buildsAfter         [2]int64

	stores []map[string]float64 // one snapshot per store, taken when its round ends
	pools  []map[string]float64
	mgrs   []map[string]float64

	// series holds timed samples by name: "cached.get_us", "cached.put_us",
	// "jobs.submit_us", "jobs.result_us", "jobs.queue_wait_ms",
	// "jobs.run_ms", and "report.render_ms" (one per round).
	series map[string][]float64
}

// span is one harness span: a call into a layer, timed from outside. Spans of
// one cell or job share its key or job id.
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"`
	Name   string    `json:"name"`
	Key    string    `json:"key,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// cellRec is one program cell span, attached to the harness span it ran
// under and the store that resolved it (for looking up its result).
type cellRec struct {
	rec    obs.SpanRecord
	parent int64
	store  *rcache.Store
}

func newTracing(e *env) *tracing { return &tracing{e: e, series: map[string][]float64{}} }

// begin snapshots the process-wide counters before the traced rounds.
func (t *tracing) begin() {
	t.regBefore = snapshot(t.e.reg)
	t.buildsBefore[0], t.buildsBefore[1] = workloads.BuildCount()
}

// finish snapshots them after.
func (t *tracing) finish() {
	t.regAfter = snapshot(t.e.reg)
	t.buildsAfter[0], t.buildsAfter[1] = workloads.BuildCount()
}

// on reports whether tracing is enabled.
func (t *tracing) on() bool { return t != nil }

// expTracer returns a fresh program tracer for one round, or nil.
func (t *tracing) expTracer() *obs.Tracer {
	if t == nil {
		return nil
	}
	return obs.NewTracer()
}

var nop = func() {}

// span opens a harness span and returns its id and the function closing it.
func (t *tracing) span(name, key string, parent int64) (int64, func()) {
	if t == nil {
		return 0, nop
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: time.Now()})
	t.mu.Unlock()
	return id, func() {
		end := time.Now()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// setKey sets a harness span's key once it is known (a job id, say).
func (t *tracing) setKey(id int64, key string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Key = key
	t.mu.Unlock()
}

// addCells attaches a program tracer's cell spans to a harness span.
func (t *tracing) addCells(tr *obs.Tracer, parent int64, store *rcache.Store) {
	if t == nil || tr == nil {
		return
	}
	recs := tr.Records()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range recs {
		t.cells = append(t.cells, cellRec{rec: r, parent: parent, store: store})
	}
}

// addStore records the final counters of a store used by a traced round.
func (t *tracing) addStore(s *rcache.Store) {
	if t == nil {
		return
	}
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	t.mu.Lock()
	t.stores = append(t.stores, snapshot(reg))
	t.mu.Unlock()
}

// addPool records the final counters of an instance pool.
func (t *tracing) addPool(p *workloads.Pool) {
	if t == nil {
		return
	}
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)
	t.mu.Lock()
	t.pools = append(t.pools, snapshot(reg))
	t.mu.Unlock()
}

// addRegistry records a manager's registry snapshot.
func (t *tracing) addRegistry(reg *obs.Registry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.mgrs = append(t.mgrs, snapshot(reg))
	t.mu.Unlock()
}

// observe appends one sample to a named series.
func (t *tracing) observe(series string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.series[series] = append(t.series[series], v)
	t.mu.Unlock()
}

// selfTimes returns each harness span name's total self time: its duration
// minus the part of it that its child spans (harness and cell spans) cover.
func (t *tracing) selfTimes() map[string]time.Duration {
	type iv struct{ s, e time.Time }
	kids := map[int64][]iv{}
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], iv{sp.Start, sp.End})
		}
	}
	for _, c := range t.cells {
		s := time.Unix(0, c.rec.StartUnixNs)
		kids[c.parent] = append(kids[c.parent], iv{s, s.Add(time.Duration(c.rec.TotalNs))})
	}
	out := map[string]time.Duration{}
	for _, sp := range t.spans {
		ch := kids[sp.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].s.Before(ch[j].s) })
		covered := time.Duration(0)
		cur := sp.Start
		for _, c := range ch {
			s, e := c.s, c.e
			if s.Before(cur) {
				s = cur
			}
			if e.After(sp.End) {
				e = sp.End
			}
			if e.After(s) {
				covered += e.Sub(s)
				cur = e
			}
		}
		out[sp.Name] += sp.End.Sub(sp.Start) - covered
	}
	return out
}

// write lands the run's spans as JSONL: harness spans first, then cell spans
// with their phase split and parent.
func (t *tracing) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range t.spans {
		if err == nil {
			err = enc.Encode(struct {
				Kind string `json:"kind"`
				span
			}{"harness", sp})
		}
	}
	for _, c := range t.cells {
		if err == nil {
			err = enc.Encode(struct {
				Kind   string         `json:"kind"`
				Parent int64          `json:"parent"`
				Cell   obs.SpanRecord `json:"cell"`
			}{"cell", c.parent, c.rec})
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
