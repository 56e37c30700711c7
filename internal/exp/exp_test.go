package exp

import (
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/workloads"
)

func TestIDsAndDescriptions(t *testing.T) {
	ids := IDs()
	if len(ids) != 13 {
		t.Fatalf("expected 13 experiments, got %d: %v", len(ids), ids)
	}
	for _, id := range ids {
		if Describe(id) == "" {
			t.Errorf("experiment %s has no description", id)
		}
	}
	if Describe("nope") != "" {
		t.Error("unknown id has a description")
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", true); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestRunOneVerifies(t *testing.T) {
	r, err := RunOne(machine.Default(2),
		workloads.Spec{Name: "scan", N: 1 << 12, Grain: 256, Seed: 1}, "pdf")
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "scan" || r.Cores != 2 || r.Cycles == 0 {
		t.Fatalf("run record incomplete: %+v", r)
	}
}

// TestEveryExperimentRunsQuick checks the shape of every experiment in the
// quick-suite reference — the reproduction's end-to-end smoke test.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite still simulates tens of millions of cycles")
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			res := reference(t, id).res
			if res.ID != id {
				t.Fatalf("result id %q", res.ID)
			}
			if len(res.Tables) == 0 || len(res.Tables[0].Rows) == 0 {
				t.Fatal("experiment produced no table rows")
			}
			if len(res.Runs) == 0 {
				t.Fatal("experiment kept no raw runs")
			}
			out := res.Tables[0].String()
			if !strings.Contains(out, "==") {
				t.Fatalf("table did not render: %q", out)
			}
		})
	}
}

// TestFig1Shape asserts the paper's headline result under cache pressure:
// with a dataset several times the shared L2, PDF misses less and finishes
// faster than WS. (The quick-mode sweep itself cannot show this — its
// dataset fits in the default L2 — so this test scales the cache down with
// the dataset, preserving the published dataset/L2 ratio of 4.)
func TestFig1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := machine.Default(8)
	cfg.L2Size = 256 << 10 // dataset 2x64Ki keys = 1 MiB: ratio 4
	spec := workloads.Spec{Name: "mergesort", N: 1 << 16, Grain: 1024, Seed: Seed}
	p, err := RunOne(cfg, spec, "pdf")
	if err != nil {
		t.Fatal(err)
	}
	w, err := RunOne(cfg, spec, "ws")
	if err != nil {
		t.Fatal(err)
	}
	if p.L2MPKI() >= w.L2MPKI() {
		t.Fatalf("PDF MPKI %.3f not below WS %.3f under cache pressure", p.L2MPKI(), w.L2MPKI())
	}
	if p.Cycles >= w.Cycles {
		t.Fatalf("PDF (%d cycles) not faster than WS (%d)", p.Cycles, w.Cycles)
	}
	if red := 1 - float64(p.OffchipBytes)/float64(w.OffchipBytes); red < 0.10 {
		t.Fatalf("traffic reduction %.1f%% below 10%%", 100*red)
	}
}

// TestT2NeutralQuick reads t2-neutral from the quick-suite reference: every
// row's pdf/ws speedup stays in the neutral band.
func TestT2NeutralQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Columns: workload, cores, pdf cycles, ws cycles, pdf/ws speedup, ...
	for _, row := range reference(t, "t2-neutral").res.Tables[0].Rows {
		rel := parseFloat(t, row[4])
		if rel < 0.8 || rel > 1.35 {
			t.Errorf("%s: relative speedup %.3f outside the neutral band", row[0], rel)
		}
	}
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	var sign float64 = 1
	i := 0
	if len(s) > 0 && s[0] == '-' {
		sign = -1
		i = 1
	}
	frac := false
	div := 1.0
	for ; i < len(s); i++ {
		c := s[i]
		if c == '.' {
			frac = true
			continue
		}
		if c < '0' || c > '9' {
			t.Fatalf("cannot parse float %q", s)
		}
		v = v*10 + float64(c-'0')
		if frac {
			div *= 10
		}
	}
	return sign * v / div
}

// TestFormatF pins the three-decimal float cells that t4-multiprog's rows
// get from report.Table.AddRow.
func TestFormatF(t *testing.T) {
	cases := map[float64]string{
		0:      "0.000",
		1.5:    "1.500",
		-2.25:  "-2.250",
		10.356: "10.356",
	}
	for in, want := range cases {
		tbl := report.New("", "v")
		tbl.AddRow(in)
		if got := tbl.Rows[0][0]; got != want {
			t.Errorf("AddRow(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestByteSize(t *testing.T) {
	cases := map[int64]string{
		512:        "512B",
		1 << 10:    "1KiB",
		3 << 20:    "3MiB",
		1536 << 10: "1536KiB", // t3-power's 2 MiB L2 with 4 of 16 ways off
	}
	for in, want := range cases {
		if got := grid.FmtBytes(in); got != want {
			t.Errorf("FmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestSizing(t *testing.T) {
	if sizing(1<<19, false) != 1<<19 {
		t.Fatal("full mode resized")
	}
	if got := sizing(1<<19, true); got != 1<<16 {
		t.Fatalf("quick mode sizing = %d", got)
	}
	if got := sizing(100, true); got != 4096 {
		t.Fatalf("quick floor = %d", got)
	}
}
