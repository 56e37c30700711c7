package testutil

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// Series registers metrics on a fresh registry, renders it as `sweep
// -stats` and /metrics print it, and returns the samples of family name,
// keyed by the label text between the braces (`shard="http://h:1"`, or ""
// for an unlabeled sample).
func Series(t testing.TB, register func(*obs.Registry), name string) map[string]float64 {
	t.Helper()
	reg := obs.NewRegistry()
	register(reg)
	var b strings.Builder
	reg.WriteText(&b)
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		labels, ok := strings.CutPrefix(line[:max(i, 0)], name)
		if !ok || labels != "" && !strings.HasPrefix(labels, "{") {
			continue // another family, or a # HELP/TYPE line
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("testutil.Series: %q: %v", line, err)
		}
		out[strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")] = v
	}
	return out
}
