package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/rcache"
	"repro/internal/workloads"
)

// warmReplay is what a second machine sharing a cached fleet sees. Set-up
// fills two in-process cached servers with every cell of the 11 grid-backed
// experiments, then fills a local disk cache from the fleet. Each round is
// one closed-loop client iteration with fresh pools: pass 1 runs the
// experiments on a memory-only store attached to the fleet (`sweep
// -cache-remote`), so every cell is a remote hit; pass 2 runs them on a new
// store over the warm disk cache (`sweep -cache DIR`), so every cell is a
// disk hit. The seed shuffles the experiment order per round. The
// simulator does no work here.
//
// Neither pass writes cache entries: the read-through disk write is
// measured where cells are computed (cold-suite, service-mixed), and the
// cost of creating files on a shared host's disk swings by several times
// from minute to minute, which would drown the replay path's own cost.
//
// t4-multiprog never uses the cell cache, and a5-premature builds an
// instance for its DAG analysis on every run, so both are left out.
type warmReplay struct {
	ids      []string
	golden   map[string]string
	servers  []*httptest.Server
	handlers []*timedHandler
	urls     string
	disk     string // the warm disk cache pass 2 replays from
	cells    int64  // distinct cells in the fleet
}

func (w *warmReplay) setupReps() int { return 1 }

func (w *warmReplay) setup(e *env) error {
	w.ids = nil
	for _, id := range exp.IDs() {
		if id != "t4-multiprog" && id != "a5-premature" {
			w.ids = append(w.ids, id)
		}
	}
	var err error
	if w.golden, err = loadGoldens(e.root, w.ids); err != nil {
		return err
	}
	w.urls = ""
	for i := 0; i < 2; i++ {
		dir, err := e.dir("cached")
		if err != nil {
			return err
		}
		srv, err := rcache.NewServer(dir, 0)
		if err != nil {
			return err
		}
		h := &timedHandler{h: srv, classify: cachedSeries}
		hs := httptest.NewServer(h)
		w.servers = append(w.servers, hs)
		w.handlers = append(w.handlers, h)
		if i > 0 {
			w.urls += ","
		}
		w.urls += hs.URL
	}

	// Fill: one client computes every cell and writes it back to the fleet.
	fill := rcache.NewMemory()
	if err := fill.AttachRemote(w.urls); err != nil {
		return err
	}
	res, err := runSuite(e, nil, 0, "fill", w.ids, w.golden, fill, workloads.NewPool(workloads.DefaultPoolBudget))
	fill.Close()
	if err != nil {
		return err
	}
	if len(res.failures) > 0 {
		return fmt.Errorf("fleet fill: %v", res.failures)
	}
	st := fill.Stats()
	w.cells = st.Misses
	if st.RemoteStores != st.Misses || st.RemoteErrs != 0 {
		return fmt.Errorf("fleet fill: %d cells computed, %d written back, %d remote errors", st.Misses, st.RemoteStores, st.RemoteErrs)
	}

	// Disk fill: a store on an empty directory reads every cell through
	// from the fleet.
	if w.disk, err = e.dir("client"); err != nil {
		return err
	}
	disk, err := rcache.Open(w.disk, false)
	if err == nil {
		err = disk.AttachRemote(w.urls)
	}
	if err != nil {
		return err
	}
	r, err := w.pass(e, nil, 0, "disk fill", w.ids, disk)
	if err != nil {
		return err
	}
	if len(r.failures) > 0 {
		return fmt.Errorf("disk fill: %v", r.failures)
	}
	if st := disk.Stats(); st.Stores != w.cells {
		return fmt.Errorf("disk fill: %d of %d fleet cells stored", st.Stores, w.cells)
	}
	return nil
}

func (w *warmReplay) close() {
	for _, s := range w.servers {
		s.Close()
	}
	w.servers, w.handlers = nil, nil
}

func (w *warmReplay) round(e *env, tr *tracing) (roundResult, error) {
	for _, h := range w.handlers {
		h.tr.Store(tr)
	}
	ids := append([]string(nil), w.ids...)
	rng := rand.New(rand.NewPCG(e.seed, uint64(e.rounds)))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

	root, end := tr.span("warm-replay", "", 0)
	var res roundResult
	t0 := time.Now()
	remote := rcache.NewMemory()
	err := remote.AttachRemote(w.urls)
	if err != nil {
		return res, err
	}
	r1, err := w.pass(e, tr, root, "pass1", ids, remote)
	if err != nil {
		return res, err
	}
	disk, err := rcache.Open(w.disk, false)
	if err != nil {
		return res, err
	}
	r2, err := w.pass(e, tr, root, "pass2", ids, disk)
	if err != nil {
		return res, err
	}
	res.wall = time.Since(t0)
	end()
	for _, r := range []roundResult{r1, r2} {
		res.ops += r.ops
		res.failures = append(res.failures, r.failures...)
		res.counts = res.counts.plus(r.counts)
	}
	res.lats = []float64{float64(res.wall.Nanoseconds()) / 1e6}
	return res, nil
}

// pass replays the experiments through store with a fresh pool and checks
// that the store served every fleet cell from one tier without computing:
// the remote tier for a store with no disk, the disk tier otherwise.
func (w *warmReplay) pass(e *env, tr *tracing, parent int64, name string, ids []string, store *rcache.Store) (roundResult, error) {
	pool := workloads.NewPool(workloads.DefaultPoolBudget)
	r, err := runSuite(e, tr, parent, name, ids, w.golden, store, pool)
	store.Close()
	if err != nil {
		return r, err
	}
	tr.addStore(store)
	tr.addPool(pool)
	st := store.Stats()
	tier, served := "disk", st.DiskHits
	if st.RemoteHits > 0 {
		tier, served = "remote", st.RemoteHits
	}
	if st.Misses != 0 || st.RemoteErrs != 0 || served != w.cells {
		r.failures = append(r.failures, fmt.Sprintf("%s: misses=%d remote-errs=%d, %d of %d fleet cells served from the %s tier",
			name, st.Misses, st.RemoteErrs, served, w.cells, tier))
	}
	return r, nil
}

func (w *warmReplay) resolve(rec cellRec) (grid.Cell, bool) { return registryCell(rec) }
func (w *warmReplay) defs() [][]byte                        { return nil }

// cachedSeries names the timing series of a cached server request.
func cachedSeries(r *http.Request) string {
	switch r.Method {
	case http.MethodGet:
		return "cached.get_us"
	case http.MethodPut:
		return "cached.put_us"
	}
	return ""
}

// timedHandler times, while a traced round has set tr, each request that
// classify names a series for, in µs.
type timedHandler struct {
	h        http.Handler
	classify func(*http.Request) string
	tr       atomic.Pointer[tracing]
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.tr.Load()
	series := ""
	if tr != nil {
		series = t.classify(r)
	}
	if series == "" {
		t.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	tr.observe(series, float64(time.Since(t0).Nanoseconds())/1e3)
}
