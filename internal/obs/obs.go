// Package obs is the reproduction's telemetry subsystem: a metric registry
// with one stable Prometheus-text rendering, per-cell execution spans, and
// the sanctioned wall-clock source for telemetry code.
//
// Everything else in this repository is deterministic by contract — cells
// are pure functions of their fingerprinted identity, output is
// byte-identical at any parallelism, and reprolint rejects ambient
// nondeterminism in the determinism-critical packages. Telemetry is the one
// subsystem that legitimately wants the wall clock, and this package fences
// it: observation never feeds back into simulation state, output tables, or
// cache keys. Tracing a sweep changes its stderr and side files, never its
// stdout (pinned by TestTraceByteIdentical in internal/exp).
//
// Three pieces:
//
//   - Registry (registry.go): counters and gauges sampled from their
//     owners' state at render time, with a single sorted text rendering in
//     the Prometheus exposition format. The same registry serves `sweep
//     -stats` / `cmpsim -stats` on stderr and the /metrics endpoints of
//     cmd/cached and cmd/sweepd; it is the only rendering of the counters.
//   - Tracer / Span (trace.go): one span per simulation cell, wall time
//     split into the six phases of the cell path (cache lookup, pool
//     acquire, build, reset, simulate, store), emitted as a JSONL event
//     trace (`sweep -trace-out`) and summarized as a top-N-slowest table.
//     Those two are the spans' only renderings; they feed no metric.
//   - Now and Since (this file): the one blessed wall-clock read.
//     Determinism-critical packages may not call time.Now (reprolint's
//     detrand analyzer); routing telemetry through obs.Now/obs.Since keeps
//     those packages clean without per-site //repro:allow annotations. The
//     contract the sanctioning rests on: a value read from this clock may
//     flow into counters, spans, benchmarks, and logs — never into
//     simulation state, output tables, or cache keys.
//
// The package is intentionally dependency-free (standard library only) and
// imports nothing else from this module, so every layer — runner, rcache,
// workloads, sim, grid, the CLIs — can attach telemetry without import
// cycles.
package obs

import "time"

// Now returns the current wall-clock time: the sanctioned wall-clock read
// for telemetry in determinism-critical packages.
func Now() time.Time { return time.Now() }

// Since returns the wall-clock time elapsed since t.
func Since(t time.Time) time.Duration { return time.Since(t) }
