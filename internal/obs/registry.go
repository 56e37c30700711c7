package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// TextContentType is the HTTP Content-Type of the registry's rendering —
// the Prometheus text exposition format cmd/cached's /metrics serves.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// A Registry holds named metrics and renders them in one stable text form:
// families sorted by name, samples within a family sorted by label set, the
// Prometheus exposition format. Both interactive stderr dumps (`sweep
// -stats`) and the /metrics endpoint are this one rendering, so operators
// and scrapers always read the same numbers under the same names.
//
// Every metric is a sampled collector (CounterFunc, GaugeFunc): the layer
// that owns a number keeps it in its own atomics or under its own lock, and
// the registry reads it through a closure at render time. Every metric is
// registered under a family name plus an optional fixed label set, e.g.
// ("rcache_hits_total", `tier="mem"`); registering the same (name, labels)
// twice, or one name under two types or help strings, panics — metric
// identity is a programming contract, not user input.
//
// All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one metric name: its metadata and the labeled members.
type family struct {
	name, help, typ string
	members         []member
}

// member is one registered metric within a family, identified by its fixed
// label set: one exposition line, name{labels} value().
type member struct {
	labels string // rendered label pairs, "" for none
	value  func() float64
	isInt  bool  // render without float formatting (counters)
	pair   *pair // set for a GaugePairFunc member, which samples through it
	second bool  // the member reads the pair's second value
}

// pair is the shared sampler of two GaugePairFunc gauges.
type pair struct {
	f func() (float64, float64)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register validates and inserts one member, panicking on identity
// violations (duplicate name+labels, or a name re-registered with different
// type or help).
func (r *Registry) register(name, typ, help string, m member) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	} else if f.typ != typ || f.help != help {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s %q (was %s %q)", name, typ, help, f.typ, f.help))
	}
	for _, o := range f.members {
		if o.labels == m.labels {
			panic(fmt.Sprintf("obs: metric %q{%s} registered twice", name, m.labels))
		}
	}
	f.members = append(f.members, m)
}

// validMetricName enforces the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// CounterFunc registers a counter whose value is sampled from f at render
// time — the adapter that exposes a layer's own atomics (rcache, wpool,
// runner counters) without rewriting their owners.
func (r *Registry) CounterFunc(name, labels, help string, f func() int64) {
	r.register(name, "counter", help, member{labels: labels, value: func() float64 { return float64(f()) }, isInt: true})
}

// GaugeFunc registers a gauge sampled from f at render time.
func (r *Registry) GaugeFunc(name, labels, help string, f func() float64) {
	r.register(name, "gauge", help, member{labels: labels, value: f})
}

// GaugePairFunc registers two gauges sampled by one call of f per render,
// which returns (first, second): for two numbers one costly read yields
// together, such as a store's entry count and byte total from one
// directory walk.
func (r *Registry) GaugePairFunc(first, firstHelp, second, secondHelp string, f func() (float64, float64)) {
	p := &pair{f: f}
	r.register(first, "gauge", firstHelp, member{pair: p})
	r.register(second, "gauge", secondHelp, member{pair: p, second: true})
}

// formatValue renders a sample value. Integer-valued metrics render as
// plain integers; everything else uses the shortest exact float form, which
// every Prometheus parser accepts.
func formatValue(v float64, isInt bool) string {
	if isInt && v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders every registered metric in the Prometheus text
// exposition format: families sorted by name, each preceded by its # HELP
// and # TYPE lines, members sorted by label set. The rendering is stable —
// the same registry state always produces the same bytes — which is what
// lets a golden test pin the format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	// Snapshot the member lists under the lock; sampling itself runs
	// outside it so a collector may take its owner's locks freely.
	fams := make([]family, len(names))
	for i, name := range names {
		fams[i] = *r.families[name]
		fams[i].members = append([]member(nil), fams[i].members...)
	}
	r.mu.Unlock()

	// A pair is sampled once per render, by whichever of its gauges comes
	// first.
	pairs := map[*pair][2]float64{}
	sample := func(m member) float64 {
		if m.pair == nil {
			return m.value()
		}
		v, ok := pairs[m.pair]
		if !ok {
			v[0], v[1] = m.pair.f()
			pairs[m.pair] = v
		}
		if m.second {
			return v[1]
		}
		return v[0]
	}
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		sort.Slice(f.members, func(i, j int) bool { return f.members[i].labels < f.members[j].labels })
		for _, m := range f.members {
			line := f.name
			if m.labels != "" {
				line += "{" + m.labels + "}"
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", line, formatValue(sample(m), m.isInt)); err != nil {
				return err
			}
		}
	}
	return nil
}
