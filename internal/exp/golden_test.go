package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/rcache"
	"repro/internal/runner"
	"repro/internal/workloads"
)

var (
	update     = flag.Bool("update", false, "rewrite the golden tables under testdata/")
	updateFull = flag.Bool("update-full", false, "rewrite testdata/fullsize.sha256 (simulates the FULL-SIZE suite: minutes, or set REPRO_FULLSIZE_CACHE to a warm -cache dir)")
)

// quickRun is one experiment of the shared quick-suite reference.
type quickRun struct {
	res *Result
	out string // render(res): the bytes its golden file holds
}

// refParallel is the reference's worker count.
var refParallel = runtime.GOMAXPROCS(0)

// quickSuite is the cold quick suite, simulated once per test binary, on
// first use, the way cmd/sweep runs it: all experiments streamed through
// the runner at refParallel workers, sharing one fresh in-memory cell
// cache (cells repeated across experiments, such as the two fig1 panels,
// simulate once) and one fresh instance pool, with no tracer and no remote
// tier. TestGoldenTables pins it to testdata/; every byte-identity test
// renders only the setting it varies — serial, uncached, unpooled, traced,
// remote — and compares that with it. The run sets the four package
// globals and restores them after; no exp test calls t.Parallel, so
// nothing else reads them meanwhile. An error is kept, so every test that
// reads the reference fails with it.
var quickSuite = sync.OnceValues(func() (map[string]quickRun, error) {
	defer func(p int, c *rcache.Store, pool *workloads.Pool, tr *obs.Tracer) {
		Parallelism, Cache, InstancePool, Tracer = p, c, pool, tr
	}(Parallelism, Cache, InstancePool, Tracer)
	Parallelism, Tracer = refParallel, nil
	Cache, InstancePool = rcache.NewMemory(), workloads.NewPool(workloads.DefaultPoolBudget)

	ids := IDs()
	jobs := make([]runner.Job[*Result], len(ids))
	for i, id := range ids {
		jobs[i] = func() (*Result, error) { return Run(id, true) }
	}
	results, err := runner.Map(refParallel, jobs)
	if err != nil {
		return nil, err
	}
	runs := map[string]quickRun{}
	for i, res := range results {
		runs[ids[i]] = quickRun{res, render(res)}
	}
	return runs, nil
})

// reference returns experiment id's run in the quick-suite reference.
func reference(t *testing.T, id string) quickRun {
	t.Helper()
	runs, err := quickSuite()
	if err != nil {
		t.Fatalf("quick-suite reference: %v", err)
	}
	return runs[id]
}

// render flattens every table of a result, aligned then CSV, so comparisons
// are over the exact bytes a consumer would see.
func render(res *Result) string {
	var out string
	for _, tbl := range res.Tables {
		out += tbl.String() + tbl.CSV()
	}
	return out
}

// renderAll runs one quick experiment under the current globals and
// renders it: the varied side of a byte-identity test.
func renderAll(t *testing.T, id string) string {
	t.Helper()
	res, err := Run(id, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) == 0 {
		t.Fatalf("%s: no raw runs", id)
	}
	return render(res)
}

// TestGoldenTables compares the quick-suite reference against the
// checked-in expectation under testdata/, so numeric drift — a changed
// latency constant, an altered scheduler tie-break, a float formatting
// change — fails CI rather than slipping into EXPERIMENTS.md unnoticed.
// After an intentional change, regenerate with
//
//	go test ./internal/exp -run TestGoldenTables -update
//
// and review the diff like any other code change.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			got := []byte(reference(t, id).out)
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o777); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o666); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/exp -run TestGoldenTables -update` to create it)", err)
			}
			if string(got) != string(want) {
				t.Errorf("%s drifted from its golden table.\n--- want (%s) ---\n%s\n--- got ---\n%s\n"+
					"If the change is intentional, regenerate with -update and review the diff.",
					id, path, want, got)
			}
		})
	}
}

// TestFullSizeChecksums pins the published numbers themselves: a SHA-256
// per experiment over the exact bytes `sweep -exp <id>` writes to stdout at
// full size, stored in testdata/fullsize.sha256 (sha256sum -c format, so
// the nightly workflow checks its regenerated binary artifacts against the
// same file — see .github/workflows/nightly.yml). Full-size simulation
// takes minutes, so the test skips unless explicitly requested:
//
//	REPRO_FULLSIZE=1 go test ./internal/exp -run TestFullSizeChecksums   # verify
//	go test ./internal/exp -run TestFullSizeChecksums -update-full       # regenerate
//
// Point REPRO_FULLSIZE_CACHE at a warm `sweep -cache` directory to amortize
// either mode (only t4-multiprog, which bypasses the cell cache, still
// simulates).
func TestFullSizeChecksums(t *testing.T) {
	verify := os.Getenv("REPRO_FULLSIZE") != ""
	if !*updateFull && !verify {
		t.Skip("full-size simulation (minutes); set REPRO_FULLSIZE=1 to verify or -update-full to regenerate")
	}
	defer func(old *rcache.Store) { Cache = old }(Cache)
	if dir := os.Getenv("REPRO_FULLSIZE_CACHE"); dir != "" {
		store, err := rcache.Open(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		Cache = store
	} else {
		Cache = rcache.NewMemory()
	}

	path := filepath.Join("testdata", "fullsize.sha256")
	want := map[string]string{}
	if verify {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run `go test ./internal/exp -run TestFullSizeChecksums -update-full` to create it)", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			sum, name, ok := strings.Cut(line, "  ")
			if !ok {
				t.Fatalf("malformed checksum line %q", line)
			}
			want[name] = sum
		}
	}

	var lines []string
	for _, id := range IDs() {
		res, err := Run(id, false)
		if err != nil {
			t.Fatal(err)
		}
		// Render exactly what `sweep -exp <id>` prints: one Println per
		// table. The nightly drift check sha256sums those real-binary
		// bytes against this file, so the encodings must agree.
		var b bytes.Buffer
		for _, tbl := range res.Tables {
			fmt.Fprintln(&b, tbl)
		}
		sum := sha256.Sum256(b.Bytes())
		hexSum := hex.EncodeToString(sum[:])
		lines = append(lines, hexSum+"  "+id+".txt")
		if verify {
			if w, ok := want[id+".txt"]; !ok {
				t.Errorf("%s: no pinned checksum (regenerate with -update-full)", id)
			} else if w != hexSum {
				t.Errorf("%s: full-size table drifted from its pinned checksum (%s != %s).\n"+
					"If the change is intentional, regenerate with -update-full and review the table diff.",
					id, hexSum, w)
			}
		}
	}
	if *updateFull {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}
