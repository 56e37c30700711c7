package obs

import (
	"strconv"
	"strings"
	"testing"
)

// TestExpositionGolden pins the text rendering exactly: family ordering,
// HELP/TYPE lines, label rendering, and value formatting. /metrics
// consumers and the -stats stderr dump both read this format, so it must
// not drift silently.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("repro_cells_total", "", "cells executed", func() int64 { return 42 })
	r.CounterFunc("rcache_hits_total", `tier="mem"`, "cache hits by tier", func() int64 { return 7 })
	r.CounterFunc("rcache_hits_total", `tier="disk"`, "cache hits by tier", func() int64 { return 3 })
	r.GaugeFunc("runner_tokens_in_use", "", "budget tokens held", func() float64 { return 3 })
	r.GaugeFunc("wpool_idle_bytes", "", "idle instance bytes", func() float64 { return 1.5e6 })
	r.GaugeFunc("runner_busy_fraction", "", "busy share", func() float64 { return 0.25 })

	want := `# HELP rcache_hits_total cache hits by tier
# TYPE rcache_hits_total counter
rcache_hits_total{tier="disk"} 3
rcache_hits_total{tier="mem"} 7
# HELP repro_cells_total cells executed
# TYPE repro_cells_total counter
repro_cells_total 42
# HELP runner_busy_fraction busy share
# TYPE runner_busy_fraction gauge
runner_busy_fraction 0.25
# HELP runner_tokens_in_use budget tokens held
# TYPE runner_tokens_in_use gauge
runner_tokens_in_use 3
# HELP wpool_idle_bytes idle instance bytes
# TYPE wpool_idle_bytes gauge
wpool_idle_bytes 1.5e+06
`
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
	// Rendering must be idempotent — a second scrape of unchanged state
	// produces identical bytes.
	var b2 strings.Builder
	if err := r.WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != b.String() {
		t.Error("two renders of unchanged state differ")
	}
}

func TestRegistryIdentityViolationsPanic(t *testing.T) {
	cases := []struct {
		name string
		f    func(r *Registry)
	}{
		{"duplicate name+labels", func(r *Registry) {
			r.CounterFunc("x_total", "", "x", zero)
			r.CounterFunc("x_total", "", "x", zero)
		}},
		{"same name different type", func(r *Registry) {
			r.CounterFunc("x_total", "", "x", zero)
			r.GaugeFunc("x_total", `a="b"`, "x", zeroF)
		}},
		{"same name different help", func(r *Registry) {
			r.CounterFunc("x_total", `a="b"`, "x", zero)
			r.CounterFunc("x_total", `a="c"`, "y", zero)
		}},
		{"invalid name", func(r *Registry) { r.GaugeFunc("2bad", "", "x", zeroF) }},
		{"empty name", func(r *Registry) { r.CounterFunc("", "", "x", zero) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.f(NewRegistry())
		})
	}
}

// Distinct label sets under one family are legal and must not panic.
func TestRegistryLabeledMembersCoexist(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("hits_total", `tier="mem"`, "hits", zero)
	r.CounterFunc("hits_total", `tier="disk"`, "hits", zero)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Count(b.String(), "# TYPE hits_total counter") != 1 {
		t.Errorf("family metadata should render once:\n%s", b.String())
	}
}

func zero() int64 { return 0 }

func zeroF() float64 { return 0 }

// TestGaugePairSampledOncePerRender: a GaugePairFunc's sampler runs once
// per render, its two gauges read its two values, and a render that is
// not interleaved with another's never reuses an earlier render's sample.
func TestGaugePairSampledOncePerRender(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.GaugePairFunc("store_entries", "entries", "store_bytes", "bytes", func() (float64, float64) {
		calls++
		return float64(calls), float64(100 * calls)
	})
	// Sorted between the pair's members, so the pair is not sampled as
	// one adjacent block.
	r.GaugeFunc("store_capacity", "", "capacity", func() float64 { return 7 })
	for render := 1; render <= 3; render++ {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if calls != render {
			t.Fatalf("render %d: sampler ran %d times in all, want once per render", render, calls)
		}
		for _, line := range []string{
			"store_entries " + strconv.Itoa(render),
			"store_bytes " + strconv.Itoa(100*render),
		} {
			if !strings.Contains(b.String(), line+"\n") {
				t.Fatalf("render %d lacks %q:\n%s", render, line, b.String())
			}
		}
	}
}
