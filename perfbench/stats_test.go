package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSummarizeMatchesPythonQuantiles pins the quartiles to what Python's
// statistics.quantiles(xs, n=4) returns for the same data, the method the
// spread check on this benchmark's results uses.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	s := summarize([]float64{7, 1, 5, 3, 9, 11, 13, 2, 4, 6})
	// statistics.quantiles([1,2,3,4,5,6,7,9,11,13], n=4) == [2.75, 5.5, 9.5]
	for name, got := range map[string]float64{"q1": s.q1, "median": s.value, "q3": s.q3} {
		want := map[string]float64{"q1": 2.75, "median": 5.5, "q3": 9.5}[name]
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if one := summarize([]float64{4}); one.value != 4 || one.p10 != 4 || one.p95 != 4 {
		t.Errorf("single sample summarizes to %+v", one)
	}
}

// TestSelfTimes checks self time is a span's duration minus the union of
// its children, harness and cell spans alike, overlaps counted once.
func TestSelfTimes(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracing{
		spans: []span{
			{ID: 1, Name: "round", Start: at(0), End: at(100)},
			{ID: 2, Parent: 1, Name: "exp.Run", Start: at(10), End: at(40)},
			{ID: 3, Parent: 1, Name: "exp.Run", Start: at(30), End: at(50)},
		},
		cells: []cellRec{{rec: obs.SpanRecord{StartUnixNs: at(60).UnixNano(), TotalNs: int64(20 * time.Millisecond)}, parent: 1}},
	}
	self := tr.selfTimes()
	if got, want := self["round"], 40*time.Millisecond; got != want {
		t.Errorf("round self time %v, want %v", got, want)
	}
	if got, want := self["exp.Run"], 50*time.Millisecond; got != want {
		t.Errorf("exp.Run self time %v, want %v", got, want)
	}
}
