package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// sample is a summary of repeated measurements: a reported value (the
// median unless at says otherwise), quartiles, tails and count.
type sample struct {
	value, q1, q3, p10, p95 float64
	n                       int
}

// at returns s reporting v as its value.
func (s sample) at(v float64) sample {
	s.value = v
	return s
}

// summarize returns the median, quartiles, p10 and p95 of xs, with
// quantiles placed as Python's statistics.quantiles places them (the
// exclusive method), clamped to the extremes for small samples.
func summarize(xs []float64) sample {
	if len(xs) == 0 {
		return sample{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sample{
		value: quantile(s, 0.5), q1: quantile(s, 0.25), q3: quantile(s, 0.75),
		p10: quantile(s, 0.1), p95: quantile(s, 0.95), n: len(s),
	}
}

// quantile interpolates sorted s at p using the exclusive method
// (position p*(n+1), clamped to the ends).
func quantile(s []float64, p float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := p * float64(n+1)
	if pos <= 1 {
		return s[0]
	}
	if pos >= float64(n) {
		return s[n-1]
	}
	i := int(pos)
	return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
}

// percentile returns the p-quantile of unsorted xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, p)
}

// snapshot reads a registry's current samples, keyed "name{labels}".
func snapshot(r *obs.Registry) map[string]float64 {
	var b bytes.Buffer
	r.WriteText(&b)
	m := map[string]float64{}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set. Where the kernel refuses, the mark keeps covering
// the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// statusMB returns a kB field of /proc/self/status in MB: VmHWM: for the
// resident-set high-water mark, VmRSS: for the resident set now.
func statusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// cpuTime returns the process's CPU time so far, user plus system, all
// threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuModel returns the host CPU's model name.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeDigest fingerprints the measured program's source — go.mod, the PGO
// profile and every .go file under cmd/ and internal/ — so results identify
// the code even in a checkout that is not a git repository.
func treeDigest(root string) string {
	var files []string
	for _, top := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".pgo")) {
				files = append(files, p)
			}
			return nil
		})
	}
	files = append(files, filepath.Join(root, "go.mod"))
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
