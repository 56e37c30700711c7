package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/rcache"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// serviceMixed is the user-facing service path: an in-process sweepd
// (jobs.Manager + jobs.API on a loopback httptest server, fresh pool and
// fresh in-memory store, sweepd's default without -cache) driven by a
// closed loop of nproc clients — sweepd callers wait for their result.
// Each round replays the run's seeded stream of small grid jobs: a client
// POSTs the next definition, waits on its event stream for the end, then
// GETs the CSV and checks it byte for byte against an exp.RunGrid
// reference computed in set-up. One operation is one job.
//
// The store is not disk-backed: writing a computed cell to disk is
// measured in cold-suite, and on a shared host the cost of creating a file
// swings by several times from minute to minute, which would drown the
// service path's own cost.
type serviceMixed struct {
	stream  []jobSpec
	cells   map[string]grid.Cell // content address -> cell, for the ladder
	handler *timedHandler
}

// jobSpec is one job of the stream: its definition and expected CSV.
type jobSpec struct {
	def  []byte
	want string
}

// family is one catalog point of memory-bound cells. A job takes one family
// and two data seeds: the family's previous seed, whose cells an earlier job
// computed, and a fresh one — so about half of each job's cells repeat.
type family struct {
	workload string
	n, grain int
	iters    int
	cores    int
	l2       string
}

// catalog: hashjoin, spmv and histogram plus a sort; n 8-16Ki; 2-8 cores;
// L2s small enough that the data spills.
var catalog = []family{
	{"hashjoin", 8192, 512, 0, 2, "128KiB"},
	{"hashjoin", 16384, 1024, 0, 8, "512KiB"},
	{"hashjoin", 16384, 1024, 0, 4, "128KiB"},
	{"spmv", 8192, 512, 1, 4, "128KiB"},
	{"spmv", 8192, 1024, 1, 8, "512KiB"},
	{"spmv", 16384, 1024, 1, 2, "512KiB"},
	{"histogram", 8192, 512, 0, 8, "128KiB"},
	{"histogram", 16384, 1024, 0, 2, "128KiB"},
	{"histogram", 16384, 1024, 0, 4, "512KiB"},
	{"mergesort", 8192, 512, 0, 4, "512KiB"},
	{"mergesort", 16384, 1024, 0, 8, "128KiB"},
	{"mergesort", 8192, 512, 0, 2, "128KiB"},
}

// streamJobs is the number of jobs in one round.
const streamJobs = 96

// jobStream generates the run's job definitions from its seed: every
// family the same number of times, in a seeded order, with seeded data.
func jobStream(seed uint64) [][]byte {
	rng := splitmix(seed)
	last := make([]uint64, len(catalog))
	for i := range last {
		last[i] = rng.next()
	}
	order := make([]int, streamJobs)
	for k := range order {
		order[k] = k % len(catalog)
	}
	for k := len(order) - 1; k > 0; k-- {
		j := int(rng.next() % uint64(k+1))
		order[k], order[j] = order[j], order[k]
	}
	defs := make([][]byte, streamJobs)
	for k, fi := range order {
		f := catalog[fi]
		fresh := rng.next()
		d := grid.Def{
			Title:    fmt.Sprintf("perfbench job %d", k),
			Workload: []string{f.workload},
			N:        []int{f.n},
			Grain:    []int{f.grain},
			Seed:     []uint64{last[fi], fresh},
			Cores:    []int{f.cores},
			L2:       []string{f.l2},
			Sched:    []string{"pdf", "ws"},
		}
		if f.iters > 0 {
			d.Iters = []int{f.iters}
		}
		last[fi] = fresh
		defs[k], _ = json.Marshal(d) // a Def of plain values always marshals
	}
	return defs
}

// splitmix is a tiny seeded generator for the job stream.
type splitmixState uint64

func splitmix(seed uint64) *splitmixState { s := splitmixState(seed); return &s }

func (s *splitmixState) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *serviceMixed) setupReps() int { return 1 }

// setup generates the stream and computes every job's reference CSV through
// exp.RunGrid on a private store, fanning jobs out like sweep fans out ids.
func (s *serviceMixed) setup(e *env) error {
	defs := jobStream(e.seed)
	s.stream = make([]jobSpec, len(defs))
	s.cells = map[string]grid.Cell{}
	exp.Cache, exp.InstancePool, exp.Tracer = rcache.NewMemory(), workloads.NewPool(workloads.DefaultPoolBudget), nil
	var mu sync.Mutex
	work := make([]runner.Job[string], len(defs))
	for i, raw := range defs {
		work[i] = func() (string, error) {
			d, err := grid.ParseDef(raw)
			if err != nil {
				return "", err
			}
			g, err := d.Resolve(exp.Seed)
			if err != nil {
				return "", err
			}
			mu.Lock()
			for _, c := range g.Cells() {
				s.cells[rcache.KeyOf(c.Config, c.Spec, c.Sched, exp.Seed, false).String()] = c
			}
			mu.Unlock()
			res, err := exp.RunGrid(g, false)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, t := range res.Tables {
				b.WriteString(t.CSV())
			}
			return b.String(), nil
		}
	}
	want, err := runner.Map(e.nproc, work)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	for i := range defs {
		s.stream[i] = jobSpec{def: defs[i], want: want[i]}
	}
	s.handler = &timedHandler{classify: jobsSeries}
	return nil
}

func (s *serviceMixed) close() {}

// jobsSeries names the timing series of a sweepd API request.
func jobsSeries(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		return "jobs.submit_us"
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/result"):
		return "jobs.result_us"
	}
	return ""
}

func (s *serviceMixed) round(e *env, tr *tracing) (roundResult, error) {
	store := rcache.NewMemory()
	pool := workloads.NewPool(workloads.DefaultPoolBudget)
	exp.Cache, exp.InstancePool, exp.Tracer = store, pool, nil
	mgr := jobs.New(jobs.Config{Queue: 16, History: len(s.stream)})
	reg := obs.NewRegistry()
	mgr.RegisterMetrics(reg)
	s.handler.h = jobs.NewAPI(mgr, reg)
	s.handler.tr.Store(tr)
	hs := httptest.NewServer(s.handler)
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * e.nproc}
	client := &http.Client{Transport: transport}

	root, endRound := tr.span("service-mixed", "", 0)
	before := snapshot(e.reg)
	var (
		next     atomic.Int64
		mu       sync.Mutex
		res      roundResult
		computed = map[string]bool{}
		wg       sync.WaitGroup
	)
	t0 := time.Now()
	for c := 0; c < e.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(s.stream) {
					return
				}
				lat, id, span, err := s.job(client, hs.URL, s.stream[k], tr, root)
				var recs []obs.SpanRecord
				if j := mgr.Get(id); j != nil {
					recs = j.Tracer().Records()
					if tr.on() {
						st := mgr.Status(j)
						sub, _ := time.Parse(time.RFC3339Nano, st.SubmittedAt)
						start, _ := time.Parse(time.RFC3339Nano, st.StartedAt)
						fin, _ := time.Parse(time.RFC3339Nano, st.FinishedAt)
						tr.observe("jobs.queue_wait_ms", float64(start.Sub(sub).Nanoseconds())/1e6)
						tr.observe("jobs.run_ms", float64(fin.Sub(start).Nanoseconds())/1e6)
						tr.addCells(j.Tracer(), span, store)
					}
				}
				mu.Lock()
				res.ops++
				res.lats = append(res.lats, lat)
				if err != nil {
					res.failures = append(res.failures, fmt.Sprintf("job %d (%s): %v", k, id, err))
				}
				for _, r := range recs {
					if r.Outcome == "computed" {
						computed[r.Key] = true
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	endRound()
	res.counts.engineDelta(before, snapshot(e.reg))

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		return res, err
	}
	hs.Close()
	transport.CloseIdleConnections()
	store.Close()

	tr.addStore(store)
	tr.addPool(pool)
	tr.addRegistry(reg)
	for key := range computed {
		run, err := stored(store, key)
		if err != nil {
			return res, err
		}
		res.counts.add(run)
	}
	st := mgr.Stats()
	if rejected := st.RejectedInvalid + st.RejectedQuota + st.RejectedFull + st.RejectedDraining; st.Failed != 0 || rejected != 0 {
		res.failures = append(res.failures, fmt.Sprintf("manager: %d failed, %d rejected jobs", st.Failed, rejected))
	}
	return res, nil
}

// job runs one job as a sweepd caller does — submit, wait for the end
// event, fetch the CSV — and checks the CSV. It returns the latency from
// POST to the checked result (or the failure) in ms, the job id, and the
// job's harness span.
func (s *serviceMixed) job(client *http.Client, base string, js jobSpec, tr *tracing, root int64) (lat float64, id string, span int64, err error) {
	t0 := time.Now()
	span, endJob := tr.span("job", "", root)
	defer func() {
		lat = float64(time.Since(t0).Nanoseconds()) / 1e6
		endJob()
	}()

	_, end := tr.span("jobs.submit", "", span)
	var st jobs.Status
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(js.def))
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("submit: status %d", resp.StatusCode)
		}
	}
	end()
	if err != nil {
		return 0, st.ID, span, err
	}
	tr.setKey(span, st.ID)

	_, end = tr.span("jobs.wait", st.ID, span)
	state, err := waitEnd(client, base+"/v1/jobs/"+st.ID+"/events")
	end()
	if err == nil && state != jobs.StateDone {
		err = fmt.Errorf("job ended %s", state)
	}
	if err != nil {
		return 0, st.ID, span, err
	}

	_, end = tr.span("jobs.result", st.ID, span)
	defer end()
	resp, err = client.Get(base + "/v1/jobs/" + st.ID + "/result?format=csv")
	if err != nil {
		return 0, st.ID, span, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
	case resp.StatusCode != http.StatusOK:
		err = fmt.Errorf("result: status %d", resp.StatusCode)
	case string(body) != js.want:
		err = fmt.Errorf("CSV differs from the exp.RunGrid reference")
	}
	return 0, st.ID, span, err
}

// waitEnd reads a job's SSE stream until its end event and returns the
// terminal state.
func waitEnd(client *http.Client, url string) (jobs.State, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	ended := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: end" {
			ended = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && ended {
			var ev jobs.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return "", err
			}
			io.Copy(io.Discard, resp.Body)
			return ev.State, nil
		}
	}
	return "", fmt.Errorf("events: stream closed before the end event: %v", sc.Err())
}

func (s *serviceMixed) resolve(rec cellRec) (grid.Cell, bool) {
	c, ok := s.cells[rec.rec.Key]
	return c, ok
}

func (s *serviceMixed) defs() [][]byte {
	out := make([][]byte, len(s.stream))
	for i, j := range s.stream {
		out[i] = j.def
	}
	return out
}
