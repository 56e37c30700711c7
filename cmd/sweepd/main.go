// Command sweepd is the sweep-as-a-service front end: a long-running HTTP
// server that accepts grid definitions (the same grid.Def JSON `sweep -grid
// FILE` reads) as jobs, executes their cells through the shared runner /
// instance-pool / result-cache stack, and serves results, progress, and
// telemetry back. The CLI becomes one client among many: a job's table and
// CSV are byte-identical to `sweep -grid` on the same definition.
//
// Usage:
//
//	sweepd -cache /var/cache/repro                     # serve on :8355
//	sweepd -addr 127.0.0.1:8355 -parallel 8            # explicit bind + workers
//	sweepd -cache DIR -cache-remote http://host:8344   # share a cached fleet store
//	sweepd -cache-remote http://a:8344,http://b:8344   # a two-server fleet
//	sweepd -queue 32 -max-cells 4096                   # admission control
//
// Every flag also reads an environment default (SWEEPD_ADDR,
// SWEEPD_PARALLEL, SWEEPD_CACHE, SWEEPD_CACHE_REMOTE, SWEEPD_QUEUE,
// SWEEPD_MAX_CELLS, SWEEPD_HISTORY, SWEEPD_RETRY_AFTER, SWEEPD_DRAIN_SECS),
// so container deployments configure it without rewriting argv — see
// OPERATIONS.md for the Dockerfile/docker-compose shape and the full
// /v1/jobs API reference.
//
// Endpoints: POST/GET /v1/jobs, GET /v1/jobs/{id} (+ /result, /events SSE,
// /trace), DELETE /v1/jobs/{id}, plus /healthz and /metrics (Prometheus
// text format) like cmd/cached.
//
// Shutdown is graceful: on SIGINT/SIGTERM the server stops admitting
// (submissions get 503, /healthz reports "draining"), cancels queued jobs,
// lets the running job finish (bounded by -drain-secs, then cancelled at the
// next cell boundary), drains remote cache write-backs, and exits 0. A
// second signal exits immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/rcache"
	"repro/internal/runner"
	"repro/internal/sim"
)

// envOr reads an environment default for a flag, so containers configure
// sweepd via env (the 12-factor shape) while argv still wins.
func envOr(name, def string) string {
	if v := os.Getenv(name); v != "" {
		return v
	}
	return def
}

func envIntOr(name string, def int) int {
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweepd: %s=%q is not an integer\n", name, v)
		os.Exit(2)
	}
	return n
}

func main() {
	var (
		addr       = flag.String("addr", envOr("SWEEPD_ADDR", ":8355"), "listen address")
		parallel   = flag.Int("parallel", envIntOr("SWEEPD_PARALLEL", runtime.GOMAXPROCS(0)), "concurrent simulation workers per job (1 = serial)")
		queue      = flag.Int("queue", envIntOr("SWEEPD_QUEUE", 16), "max jobs waiting behind the running one; beyond it submissions get 429")
		maxCells   = flag.Int("max-cells", envIntOr("SWEEPD_MAX_CELLS", grid.MaxCells), "per-job cell quota; definitions resolving to more are rejected with 413")
		history    = flag.Int("history", envIntOr("SWEEPD_HISTORY", 64), "terminal jobs retained for status/result retrieval")
		retryAfter = flag.Int("retry-after", envIntOr("SWEEPD_RETRY_AFTER", 5), "seconds advertised in 429 Retry-After headers")
		drainSecs  = flag.Int("drain-secs", envIntOr("SWEEPD_DRAIN_SECS", 600), "max seconds to let the running job finish on shutdown (0 = unbounded)")
	)
	cli := rcache.RegisterCLI(flag.CommandLine, false)
	if env := os.Getenv("SWEEPD_CACHE"); env != "" {
		flag.CommandLine.Lookup("cache").DefValue = env
		flag.CommandLine.Set("cache", env)
	}
	if env := os.Getenv("SWEEPD_CACHE_REMOTE"); env != "" {
		flag.CommandLine.Lookup("cache-remote").DefValue = env
		flag.CommandLine.Set("cache-remote", env)
	}
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	if err := cli.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(2)
	}
	if *queue < 1 || *maxCells < 1 || *history < 1 || *retryAfter < 1 || *drainSecs < 0 {
		fmt.Fprintln(os.Stderr, "sweepd: -queue, -max-cells, -history, -retry-after must be positive and -drain-secs non-negative")
		os.Exit(2)
	}

	// The execution stack is wired exactly as cmd/sweep wires it: one
	// process-wide worker budget, one store (memory tier always on; disk and
	// remote tiers per the cache flags), one instance pool. Jobs run one at
	// a time, so these process globals are owned by the single executor.
	exp.Parallelism = *parallel
	runner.SetBudget(*parallel)
	store, err := cli.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
	exp.Cache = store

	mgr := jobs.New(jobs.Config{
		Queue:      *queue,
		MaxCells:   *maxCells,
		History:    *history,
		RetryAfter: *retryAfter,
		Log:        log,
	})

	reg := obs.NewRegistry()
	runner.RegisterMetrics(reg)
	sim.RegisterMetrics(reg)
	grid.RegisterMetrics(reg)
	store.RegisterMetrics(reg)
	exp.InstancePool.RegisterMetrics(reg)
	mgr.RegisterMetrics(reg)
	reg.GaugeFunc("sweepd_uptime_seconds", "", "seconds since process start", uptime())

	hs := &http.Server{
		Addr:    *addr,
		Handler: jobs.NewAPI(mgr, reg),
		// Submissions and polls are small and fast; only /events holds a
		// connection open, and SSE must not be killed by a write deadline,
		// so WriteTimeout stays 0 and slow-loris exposure is bounded by the
		// read-side timeouts instead.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	go func() {
		sig := make(chan os.Signal, 2)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Info("signal received, draining", "signal", s.String())
		go func() {
			<-sig
			log.Error("second signal, exiting immediately")
			os.Exit(1)
		}()
		drainCtx := context.Background()
		if *drainSecs > 0 {
			var cancel context.CancelFunc
			drainCtx, cancel = context.WithTimeout(drainCtx, time.Duration(*drainSecs)*time.Second)
			defer cancel()
		}
		// Order matters: drain the manager first (the HTTP server stays up
		// so in-drain submissions receive their 503s and pollers can watch
		// the running job finish), then stop accepting connections, then
		// flush remote write-backs.
		if err := mgr.Shutdown(drainCtx); err != nil {
			log.Warn("drain deadline hit; running job cancelled", "err", err.Error())
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutCtx)
	}()

	log.Info("sweepd serving",
		"addr", *addr, "parallel", *parallel, "queue", *queue, "max_cells", *maxCells,
		"cache", cli.Dir, "cache_remote", cli.Remote, "schema", rcache.LiveVersion())
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
	// ListenAndServe returned ErrServerClosed: the drain goroutine finished
	// mgr.Shutdown and hs.Shutdown. Flush the store (remote write-backs)
	// before exiting so tail results reach the shared server.
	store.Close()
	log.Info("sweepd exited cleanly")
}

// uptime returns a gauge closure anchored at process start.
func uptime() func() float64 {
	start := obs.Now()
	return func() float64 { return obs.Since(start).Seconds() }
}
