// Package jobs turns the sweep pipeline into a long-running service: it
// accepts user-authored grid definitions (the same grid.Def JSON `sweep
// -grid FILE` reads), queues them as jobs, and executes each one through the
// unchanged runner / instance-pool / result-cache stack — so a job's
// rendered table and CSV are byte-identical to what `sweep -grid` prints for
// the same definition (pinned by TestServiceMatchesCLI).
//
// The package splits in two:
//
//   - Manager (this file): admission control and execution. A bounded FIFO
//     queue feeds a single executor goroutine; jobs run one at a time, each
//     fanning its cells across the process-wide runner budget exactly as the
//     CLI does. Admission enforces a per-job cell quota and a queue depth —
//     the backpressure surface a fleet of submitters sees as 429s — and a
//     draining flag flips submissions to 503 while the running job finishes
//     (graceful shutdown).
//   - API (api.go): the HTTP surface cmd/sweepd serves — submit, poll,
//     result retrieval with content negotiation, SSE progress streaming,
//     cancellation, and the /healthz and /metrics side-band.
//
// Every job gets its own obs.Tracer, so spans — and the cache-outcome tally
// derived from them (a warm resubmission reports zero misses) — are
// attributed per submission even though all jobs share one process-wide
// cache and pool. Wall-clock timestamps here are telemetry only: they flow
// into status JSON and logs, never into results or cache keys, matching the
// observation-only contract in DESIGN.md.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/obs"
)

// State is a job's lifecycle position. Transitions are strictly forward:
// queued → running → one of the three terminal states, or queued → cancelled
// directly (a cancelled or shutdown-drained job that never started).
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Config sizes a Manager's admission control.
type Config struct {
	// Queue is the maximum number of jobs waiting behind the running one;
	// submissions beyond it are rejected with queue-full (HTTP 429).
	Queue int
	// MaxCells is the per-job cell quota. A definition that resolves to more
	// cells is rejected at submission (HTTP 413). Zero means grid.MaxCells —
	// the same cap the CLI enforces.
	MaxCells int
	// History is how many terminal jobs are retained for status and result
	// retrieval before the oldest are evicted. Zero means 64.
	History int
	// Log receives structured job-lifecycle events (accepted, running,
	// finished, rejections, drain). Nil discards them.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Queue <= 0 {
		c.Queue = 16
	}
	if c.MaxCells <= 0 || c.MaxCells > grid.MaxCells {
		c.MaxCells = grid.MaxCells
	}
	if c.History <= 0 {
		c.History = 64
	}
	if c.Log == nil {
		c.Log = slog.New(slog.DiscardHandler)
	}
	return c
}

// retryAfterSecs is the Retry-After a queue-full (429) rejection advertises.
const retryAfterSecs = 5

// A SubmitError is a rejected submission, carrying the HTTP status the API
// layer maps it to (400 invalid definition, 413 over the cell quota, 429
// queue full, 503 draining).
type SubmitError struct {
	HTTPStatus int
	Reason     string
}

func (e *SubmitError) Error() string { return e.Reason }

// Event is one SSE progress snapshot: the job's state and cell completion
// at a moment in time. The API layer serializes it as the data of every
// status/progress/end event.
type Event struct {
	ID         string  `json:"id"`
	State      State   `json:"state"`
	CellsDone  int     `json:"cells_done"`
	CellsTotal int     `json:"cells_total"`
	Percent    float64 `json:"percent"`
	Error      string  `json:"error,omitempty"`
}

// Status is the wire form of a job returned by GET /v1/jobs/{id}: Event's
// live fields plus submission metadata, the per-job cache-outcome tally, and
// timestamps. Timestamps are RFC 3339; cache_hits/cache_misses are derived
// from the job's spans when it finishes (a warm resubmission of an already
// computed definition reports cache_misses = 0).
type Status struct {
	ID            string  `json:"id"`
	State         State   `json:"state"`
	Title         string  `json:"title,omitempty"`
	CellsTotal    int     `json:"cells_total"`
	CellsDone     int     `json:"cells_done"`
	Percent       float64 `json:"percent"`
	QueuePosition int     `json:"queue_position,omitempty"`
	CacheHits     int     `json:"cache_hits"`
	CacheMisses   int     `json:"cache_misses"`
	SubmittedAt   string  `json:"submitted_at"`
	StartedAt     string  `json:"started_at,omitempty"`
	FinishedAt    string  `json:"finished_at,omitempty"`
	Error         string  `json:"error,omitempty"`
}

// A Job is one accepted grid submission. All mutable fields are guarded by
// mu; the identity fields (id, grid, cells, title) are immutable after
// admission.
type Job struct {
	id    string
	grid  *grid.Grid
	cells int
	title string

	mu        sync.Mutex
	state     State
	done      int
	err       string
	table     string // rendered exactly as `sweep -grid` prints (tables + trailing blank lines)
	csv       string // rendered exactly as `sweep -grid -csv` prints
	hits      int    // span outcomes other than computed/uncached, tallied at finish
	misses    int    // computed/uncached span outcomes
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc // set while running
	cancelled bool               // cancellation requested (possibly before start)
	tracer    *obs.Tracer
	changed   chan struct{} // closed at the next state or progress move; nil until watched
	doneCh    chan struct{} // closed when the job reaches a terminal state
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Tracer returns the job's span tracer. Spans accumulate as cells complete;
// the API streams them as JSONL from /v1/jobs/{id}/trace.
func (j *Job) Tracer() *obs.Tracer { return j.tracer }

// event snapshots the job's Event under mu.
func (j *Job) event() Event {
	return Event{
		ID:         j.id,
		State:      j.state,
		CellsDone:  j.done,
		CellsTotal: j.cells,
		Percent:    percent(j.done, j.cells),
		Error:      j.err,
	}
}

// Event snapshots the job's live progress.
func (j *Job) Event() Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.event()
}

// Result returns the rendered table and CSV output. ok is false until the
// job is done.
func (j *Job) Result() (table, csv string, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return "", "", false
	}
	return j.table, j.csv, true
}

// watch snapshots the job's Event together with a channel that is closed at
// its next state or progress move. A watcher waits on the channel and then
// watches again, so moves between two snapshots coalesce into the later one
// and the executor never blocks on a slow watcher. The channel is made only
// when someone watches: an unwatched job allocates nothing per cell, and a
// watched one one small channel per move its watchers observe.
func (j *Job) watch() (Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.changed == nil {
		j.changed = make(chan struct{})
	}
	return j.event(), j.changed
}

// notify wakes every watcher: it closes the change channel, and the next
// watch makes a fresh one. Callers hold mu.
func (j *Job) notify() {
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
}

// progress records one completed cell and wakes watchers. Called on
// the executor's yield path in canonical cell order, so done is strictly
// increasing.
func (j *Job) progress(done int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done = done
	j.notify()
}

// finish moves the job to a terminal state: stamps the finish time, tallies
// the cache outcomes from its spans, wakes watchers (who then read the
// terminal snapshot), and releases Done waiters.
func (j *Job) finish(state State, errMsg string) {
	hits, misses := 0, 0
	for _, rec := range j.tracer.Records() {
		switch rec.Outcome {
		case "computed", "uncached":
			misses++
		default:
			hits++
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.err = errMsg
	j.finished = obs.Now()
	j.hits, j.misses = hits, misses
	j.cancel = nil
	j.notify()
	close(j.doneCh)
}

func percent(done, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(done) / float64(total)
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// Stats is the manager's counter snapshot; /metrics renders the same
// counters as the sweepd_* family.
type Stats struct {
	Submitted        int64
	Done             int64
	Failed           int64
	Cancelled        int64
	RejectedInvalid  int64
	RejectedQuota    int64
	RejectedFull     int64
	RejectedDraining int64
	CellsDone        int64
	QueueDepth       int
	Running          int
	Draining         bool
}

// Manager owns the job table, the admission queue, and the single executor
// goroutine. Create with New, stop with Shutdown.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond // signals the executor: queue non-empty or closing
	jobs     map[string]*Job
	order    []*Job // admission order; history eviction walks it oldest-first
	queue    []*Job
	running  *Job
	draining bool
	seq      int

	wg sync.WaitGroup

	submitted        atomic.Int64
	completed        atomic.Int64
	failed           atomic.Int64
	cancelledN       atomic.Int64
	rejectedInvalid  atomic.Int64
	rejectedQuota    atomic.Int64
	rejectedFull     atomic.Int64
	rejectedDraining atomic.Int64
	cellsDone        atomic.Int64

	// beforeRun, when non-nil, runs on the executor goroutine after a job
	// enters the running state and before its cells execute — a test seam
	// that lets the queue-full / cancellation / drain tests hold a job "in
	// flight" deterministically without simulating anything.
	beforeRun func(*Job)
}

// New returns a Manager with its executor started.
func New(cfg Config) *Manager {
	m := &Manager{
		cfg:  cfg.withDefaults(),
		jobs: map[string]*Job{},
	}
	m.cond = sync.NewCond(&m.mu)
	m.wg.Add(1)
	go m.run()
	return m
}

// Submit parses, validates, and admits one grid definition, returning the
// queued job or a *SubmitError. Validation is the CLI's own path —
// grid.ParseDef (unknown fields rejected) then Def.Resolve with the
// registry seed — so a definition is accepted by the service if and only if
// `sweep -grid` would run it; admission then applies the service's quota
// (cell count) and backpressure (queue depth, draining) on top.
func (m *Manager) Submit(raw []byte) (*Job, error) {
	def, err := grid.ParseDef(raw)
	if err != nil {
		m.rejectedInvalid.Add(1)
		return nil, &SubmitError{HTTPStatus: 400, Reason: err.Error()}
	}
	g, err := def.Resolve(exp.Seed)
	if err != nil {
		m.rejectedInvalid.Add(1)
		return nil, &SubmitError{HTTPStatus: 400, Reason: err.Error()}
	}
	// Count without enumerating: the run enumerates the cells once, and
	// grid_cells_enumerated_total should count them once.
	cells := len(g.Workloads) * len(g.Configs) * len(g.Scheds)
	if cells > m.cfg.MaxCells {
		m.rejectedQuota.Add(1)
		m.cfg.Log.Warn("job rejected", "reason", "quota", "cells", cells, "max_cells", m.cfg.MaxCells)
		return nil, &SubmitError{
			HTTPStatus: 413,
			Reason:     fmt.Sprintf("definition resolves to %d cells, over this server's per-job quota of %d — shrink an axis or split the sweep", cells, m.cfg.MaxCells),
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.rejectedDraining.Add(1)
		m.cfg.Log.Warn("job rejected", "reason", "draining")
		return nil, &SubmitError{HTTPStatus: 503, Reason: "server is draining; submit to another instance"}
	}
	if len(m.queue) >= m.cfg.Queue {
		m.rejectedFull.Add(1)
		m.cfg.Log.Warn("job rejected", "reason", "queue-full", "queue_depth", len(m.queue))
		return nil, &SubmitError{
			HTTPStatus: 429,
			Reason:     fmt.Sprintf("job queue is full (%d waiting); retry in %ds", len(m.queue), retryAfterSecs),
		}
	}
	m.seq++
	j := &Job{
		id:        fmt.Sprintf("j%06d", m.seq),
		grid:      g,
		cells:     cells,
		title:     g.Title,
		state:     StateQueued,
		submitted: obs.Now(),
		tracer:    obs.NewTracer(),
		doneCh:    make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	m.queue = append(m.queue, j)
	m.submitted.Add(1)
	m.evictHistoryLocked()
	m.cond.Signal()
	m.cfg.Log.Info("job accepted", "id", j.id, "cells", cells, "queue_position", len(m.queue))
	return j, nil
}

// evictHistoryLocked drops the oldest terminal jobs beyond the history
// budget. Queued and running jobs are never evicted (admission bounds how
// many can exist). Callers hold mu.
func (m *Manager) evictHistoryLocked() {
	terminal := 0
	for _, j := range m.order {
		if j.Event().State.Terminal() {
			terminal++
		}
	}
	if terminal <= m.cfg.History {
		return
	}
	kept := m.order[:0]
	for _, j := range m.order {
		if terminal > m.cfg.History && j.Event().State.Terminal() {
			delete(m.jobs, j.id)
			terminal--
			continue
		}
		kept = append(kept, j)
	}
	m.order = kept
}

// Get returns a job by id, or nil.
func (m *Manager) Get(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// List returns retained jobs in admission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, len(m.order))
	copy(out, m.order)
	return out
}

// Status snapshots a job's wire status, including its queue position (1 =
// next to run) while queued.
func (m *Manager) Status(j *Job) Status {
	m.mu.Lock()
	pos := 0
	for i, q := range m.queue {
		if q == j {
			pos = i + 1
			break
		}
	}
	m.mu.Unlock()

	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:            j.id,
		State:         j.state,
		Title:         j.title,
		CellsTotal:    j.cells,
		CellsDone:     j.done,
		Percent:       percent(j.done, j.cells),
		QueuePosition: pos,
		CacheHits:     j.hits,
		CacheMisses:   j.misses,
		SubmittedAt:   stamp(j.submitted),
		StartedAt:     stamp(j.started),
		FinishedAt:    stamp(j.finished),
		Error:         j.err,
	}
}

// Cancel requests cancellation of a job. A queued job is removed from the
// queue and finishes cancelled immediately; a running job has its context
// cancelled — in-flight cells complete, unstarted cells are skipped, and the
// job finishes cancelled shortly after. Terminal jobs are left unchanged
// (cancellation is idempotent). Returns false for unknown ids.
func (m *Manager) Cancel(id string) (*Job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, false
	}
	// Remove from the queue if still waiting.
	dequeued := false
	for i, q := range m.queue {
		if q == j {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			dequeued = true
			break
		}
	}
	m.mu.Unlock()

	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		return j, true
	case dequeued:
		j.cancelled = true
		j.mu.Unlock()
		m.cancelledN.Add(1)
		j.finish(StateCancelled, "cancelled before start")
		m.logFinished(j)
		return j, true
	default:
		j.cancelled = true
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
		return j, true
	}
}

// Shutdown drains the manager gracefully: new submissions are rejected with
// 503, queued jobs finish cancelled, and the running job (if any) completes
// before Shutdown returns. If ctx expires first, the running job's context
// is cancelled — it stops at the next cell boundary and finishes cancelled —
// and Shutdown still waits for the executor to exit before returning the
// ctx error.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.draining = true
	waiting := m.queue
	m.queue = nil
	m.cond.Broadcast()
	m.mu.Unlock()

	m.cfg.Log.Info("draining", "queued_cancelled", len(waiting))
	for _, j := range waiting {
		m.cancelledN.Add(1)
		j.mu.Lock()
		j.cancelled = true
		j.mu.Unlock()
		j.finish(StateCancelled, "server shutting down")
		m.logFinished(j)
	}

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		if j := m.running; j != nil {
			j.mu.Lock()
			j.cancelled = true
			if j.cancel != nil {
				j.cancel()
			}
			j.mu.Unlock()
		}
		m.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	depth := len(m.queue)
	running := 0
	if m.running != nil {
		running = 1
	}
	draining := m.draining
	m.mu.Unlock()
	return Stats{
		Submitted:        m.submitted.Load(),
		Done:             m.completed.Load(),
		Failed:           m.failed.Load(),
		Cancelled:        m.cancelledN.Load(),
		RejectedInvalid:  m.rejectedInvalid.Load(),
		RejectedQuota:    m.rejectedQuota.Load(),
		RejectedFull:     m.rejectedFull.Load(),
		RejectedDraining: m.rejectedDraining.Load(),
		CellsDone:        m.cellsDone.Load(),
		QueueDepth:       depth,
		Running:          running,
		Draining:         draining,
	}
}

// run is the executor: one goroutine, one job at a time, FIFO. Cells inside
// a job still fan out across the process-wide runner budget, so a single
// job saturates the hardware exactly as `sweep -grid` does; serializing
// jobs (rather than interleaving their cells) keeps per-job progress
// monotone and makes admission latency legible — queue position is an
// honest ETA ordering.
func (m *Manager) run() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.draining {
			m.cond.Wait()
		}
		if len(m.queue) == 0 {
			m.mu.Unlock()
			return
		}
		j := m.queue[0]
		m.queue = m.queue[1:]
		m.running = j
		m.mu.Unlock()

		m.execute(j)

		m.mu.Lock()
		m.running = nil
		m.mu.Unlock()
	}
}

// execute runs one dequeued job to a terminal state.
func (m *Manager) execute(j *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	j.mu.Lock()
	// A cancellation that raced the dequeue: don't start the grid.
	if j.cancelled {
		j.mu.Unlock()
		m.cancelledN.Add(1)
		j.finish(StateCancelled, "cancelled before start")
		m.logFinished(j)
		return
	}
	j.state = StateRunning
	j.started = obs.Now()
	j.cancel = cancel
	j.notify()
	j.mu.Unlock()
	m.cfg.Log.Info("job running", "id", j.id, "cells", j.cells)

	if m.beforeRun != nil {
		m.beforeRun(j)
	}

	res, err := exp.RunGridStream(ctx, j.grid, false, j.tracer, func(done, total int) {
		m.cellsDone.Add(1)
		j.progress(done)
	})
	switch {
	case err == nil:
		var table, csv strings.Builder
		for _, t := range res.Tables {
			// Byte-for-byte what cmd/sweep prints: fmt.Println(t) is
			// t.String() plus a newline; -csv is t.CSV() verbatim.
			table.WriteString(t.String())
			table.WriteByte('\n')
			csv.WriteString(t.CSV())
		}
		j.mu.Lock()
		j.table = table.String()
		j.csv = csv.String()
		j.mu.Unlock()
		m.completed.Add(1)
		j.finish(StateDone, "")
	case errors.Is(err, context.Canceled):
		m.cancelledN.Add(1)
		j.finish(StateCancelled, "cancelled")
	default:
		m.failed.Add(1)
		j.finish(StateFailed, err.Error())
	}
	m.logFinished(j)
}

// logFinished emits the terminal lifecycle record for a job — the line
// operators (and the e2e drain test) watch for.
func (m *Manager) logFinished(j *Job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	m.cfg.Log.Info("job finished",
		"id", j.id, "state", string(j.state), "cells_done", j.done, "cells", j.cells,
		"cache_hits", j.hits, "cache_misses", j.misses, "error", j.err)
}

// RegisterMetrics exposes the manager's counters on a registry as the
// sweepd_* family, alongside the execution stack's own families (rcache_*,
// runner_*, sim_*, grid_*, wpool_*) that cmd/sweepd registers next to it.
func (m *Manager) RegisterMetrics(r *obs.Registry) {
	const rejHelp = "submissions rejected at admission, by reason"
	r.CounterFunc("sweepd_jobs_submitted_total", "", "grid definitions accepted into the queue", m.submitted.Load)
	r.CounterFunc("sweepd_jobs_done_total", "", "jobs completed successfully", m.completed.Load)
	r.CounterFunc("sweepd_jobs_failed_total", "", "jobs that ended in an execution error", m.failed.Load)
	r.CounterFunc("sweepd_jobs_cancelled_total", "", "jobs cancelled by request or shutdown drain", m.cancelledN.Load)
	r.CounterFunc("sweepd_jobs_rejected_total", `reason="invalid"`, rejHelp, m.rejectedInvalid.Load)
	r.CounterFunc("sweepd_jobs_rejected_total", `reason="quota"`, rejHelp, m.rejectedQuota.Load)
	r.CounterFunc("sweepd_jobs_rejected_total", `reason="queue-full"`, rejHelp, m.rejectedFull.Load)
	r.CounterFunc("sweepd_jobs_rejected_total", `reason="draining"`, rejHelp, m.rejectedDraining.Load)
	r.CounterFunc("sweepd_cells_done_total", "", "simulation cells completed across all jobs", m.cellsDone.Load)
	r.GaugeFunc("sweepd_queue_depth", "", "jobs waiting behind the running one", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.queue))
	})
	r.GaugeFunc("sweepd_jobs_running", "", "jobs currently executing (0 or 1)", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.running != nil {
			return 1
		}
		return 0
	})
}
