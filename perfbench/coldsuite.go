package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/rcache"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// coldSuite runs all 13 registry experiments at quick size the way `sweep
// -exp all -quick` does — ids fan out over runner.Stream on the shared
// budget — from a fresh disk store and instance pool each round, so every
// cell simulates and is written to disk. Its inputs are the paper's fixed
// evaluation; the seed changes nothing. One operation is one experiment's
// exp.Run call.
type coldSuite struct {
	ids    []string
	golden map[string]string
	ref    metrics.Run // refCell computed fresh and uncached in set-up
}

// refCell is the reference computation of set-up: one of a5-premature's
// cells, simulated on a freshly built instance with no cache, which every
// round's cached and pooled result for the same cell must equal.
var refCell = grid.Cell{
	Config: machine.Default(2),
	Spec:   workloads.Spec{Name: "mergesort", N: 32768, Grain: 2048, Seed: exp.Seed},
	Sched:  "pdf",
}

func (c *coldSuite) setupReps() int { return 5 }

// setup loads the golden tables every round is checked against and
// computes the reference cell.
func (c *coldSuite) setup(e *env) error {
	c.ids = exp.IDs()
	var err error
	if c.golden, err = loadGoldens(e.root, c.ids); err != nil {
		return err
	}
	exp.Cache, exp.InstancePool = nil, nil
	c.ref, err = exp.RunOne(refCell.Config, refCell.Spec, refCell.Sched)
	return err
}

func (c *coldSuite) close() {}

// loadGoldens reads internal/exp/testdata/<id>.golden for each id.
func loadGoldens(root string, ids []string) (map[string]string, error) {
	out := map[string]string{}
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(root, "internal", "exp", "testdata", id+".golden"))
		if err != nil {
			return nil, err
		}
		out[id] = string(b)
	}
	return out, nil
}

func (c *coldSuite) round(e *env, tr *tracing) (roundResult, error) {
	dir, err := e.dir("cold")
	if err != nil {
		return roundResult{}, err
	}
	defer os.RemoveAll(dir)
	store, err := rcache.Open(dir, false)
	if err != nil {
		return roundResult{}, err
	}
	pool := workloads.NewPool(workloads.DefaultPoolBudget)
	res, err := runSuite(e, tr, 0, "cold-suite", c.ids, c.golden, store, pool)
	tr.addStore(store)
	tr.addPool(pool)
	if err != nil {
		return res, err
	}
	key := rcache.KeyOf(refCell.Config, refCell.Spec, refCell.Sched, exp.Seed, true).String()
	if run, err := stored(store, key); err != nil || run != c.ref {
		res.failures = append(res.failures, fmt.Sprintf("cell %v/%s/%s: the round's result differs from a fresh uncached computation (%v)",
			refCell.Spec, refCell.Config.Name, refCell.Sched, err))
	}
	return res, nil
}

// runSuite runs ids through the experiment layer as cmd/sweep does, against
// store and pool, and checks each rendered result against its golden. The
// rendering (tables then CSV, the golden layout) is part of the timed round:
// it is what a sweep user waits for.
func runSuite(e *env, tr *tracing, parent int64, name string, ids []string, golden map[string]string, store *rcache.Store, pool *workloads.Pool) (roundResult, error) {
	exp.Cache, exp.InstancePool = store, pool
	xt := tr.expTracer()
	exp.Tracer = xt
	defer func() { exp.Tracer = nil }()
	root, endRound := tr.span(name, "", parent)

	var res roundResult
	lats := make([]float64, len(ids))
	jobs := make([]runner.Job[*exp.Result], len(ids))
	for i, id := range ids {
		jobs[i] = func() (*exp.Result, error) {
			_, end := tr.span("exp.Run", id, root)
			defer end()
			t0 := time.Now()
			r, err := exp.Run(id, true)
			lats[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
			return r, err
		}
	}
	before := snapshot(e.reg)
	var renderNs int64
	t0 := time.Now()
	err := runner.Stream(e.nproc, jobs, func(i int, r *exp.Result, err error) error {
		res.ops++
		if err != nil {
			res.failures = append(res.failures, fmt.Sprintf("%s: %v", ids[i], err))
			return nil
		}
		_, end := tr.span("report.render", ids[i], root)
		r0 := time.Now()
		var b strings.Builder
		for _, t := range r.Tables {
			b.WriteString(t.String())
			b.WriteString(t.CSV())
		}
		renderNs += int64(time.Since(r0))
		end()
		if b.String() != golden[ids[i]] {
			res.failures = append(res.failures, fmt.Sprintf("%s: table differs from internal/exp/testdata/%s.golden", ids[i], ids[i]))
		}
		for _, run := range r.Runs {
			res.counts.add(run)
		}
		return nil
	})
	res.wall = time.Since(t0)
	endRound()
	res.counts.engineDelta(before, snapshot(e.reg))
	res.lats = lats
	if err != nil {
		return res, err
	}
	if s := store.Stats(); s.Corrupt != 0 || s.RemoteErrs != 0 {
		res.failures = append(res.failures, fmt.Sprintf("%s: store reported corrupt=%d remote-errs=%d", name, s.Corrupt, s.RemoteErrs))
	}
	tr.addCells(xt, root, store)
	tr.observe("report.render_ms", float64(renderNs)/1e6)
	return res, nil
}

func (c *coldSuite) resolve(rec cellRec) (grid.Cell, bool) { return registryCell(rec) }
func (c *coldSuite) defs() [][]byte                        { return nil }
