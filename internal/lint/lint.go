// Package lint is reprolint's analysis engine: four static analyzers that
// enforce this repository's determinism and cache-key contract at lint time,
// before a golden file or a content-addressed cache entry can drift.
//
// Everything the reproduction promises — byte-identical sweeps at any
// -parallel, cache keys stable across refactors, a shared fleet store that
// replays old caches at 100% hits — rests on invariants that were previously
// enforced only at runtime (reflection tests for fingerprint completeness,
// golden files for output) or by review convention ("don't use math/rand").
// The analyzers here make those invariants diagnosable from source:
//
//   - detrand: in determinism-critical packages, forbid ambient
//     nondeterminism — math/rand, time.Now/Since/Until, os.Getenv, and
//     multi-case select races. repro/internal/xprng is the sanctioned
//     randomness source.
//   - maporder: flag `range` over a map whose loop body appends to an
//     escaping slice (without a subsequent sort), writes output, or feeds a
//     fingerprint/hash — the exact bug class that corrupts cache keys and
//     table ordering.
//   - fpcomplete: every Fingerprint method must reference every field of its
//     receiver struct, turning the reflection tests' runtime guarantee into
//     a lint-time diagnostic that names the missing field.
//   - tokenhold: flag blocking waits on the worker-budget path (and nested
//     runner.Stream/Map re-entry or goroutine launches inside worker
//     callbacks) that would park a budget token, the idle-core bug family
//     ROADMAP tracks.
//
// A finding is suppressed by an audited annotation on the offending line or
// the line above it:
//
//	//repro:allow <analyzer> <reason>
//
// The reason is mandatory; a malformed annotation is itself a diagnostic,
// and stale annotations are rejected by the driver's -unused-allows mode,
// so suppressions cannot accumulate silently.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis (an
// Analyzer runs over one type-checked package via a Pass and reports
// Diagnostics) but is self-contained on the standard library: the module has
// zero dependencies and this keeps it that way. cmd/reprolint is the one
// driver; load.go is its package loader.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one static check. Run inspects the package in pass and
// reports findings through pass.Report; it returns an error only for
// internal failures (never for findings).
type Analyzer struct {
	Name string // short lower-case identifier, used in //repro:allow
	Doc  string // one-line description
	Run  func(pass *Pass) error
}

// A Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // parsed with comments
	Pkg       *types.Package
	TypesInfo *types.Info

	Report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, attributed to the analyzer that produced it
// (the name //repro:allow must cite to suppress it).
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetrandAnalyzer, MaporderAnalyzer, FpcompleteAnalyzer, TokenholdAnalyzer}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// DetPackages lists the determinism-critical package paths detrand polices:
// the packages whose code runs between a cell's identity being fingerprinted
// and its metrics being rendered, where any ambient nondeterminism either
// breaks byte-identical output or poisons the content-addressed store.
// Overridable so the analyzer tests can point it at testdata packages.
var DetPackages = []string{
	"repro/internal/sim",
	"repro/internal/cache",
	"repro/internal/workloads",
	"repro/internal/core",
	"repro/internal/exp",
	"repro/internal/grid",
	"repro/internal/mem",
	"repro/internal/trace",
	"repro/internal/dag",
	"repro/internal/pq",
	"repro/internal/metrics",
	"repro/internal/machine",
}

// TokenPackages lists the packages whose non-test code executes while worker
// budget tokens are held (or parks goroutines that hold them): the runner
// itself, and rcache, whose singleflight waiters run on worker-callback
// goroutines. tokenhold flags blocking waits here. Overridable for tests.
var TokenPackages = []string{
	"repro/internal/runner",
	"repro/internal/rcache",
}

// RunnerPackage is the import path of the worker pool whose Stream/Map
// entry points tokenhold treats as fan-out boundaries. Overridable for
// tests.
var RunnerPackage = "repro/internal/runner"

// XPRNGPackage is the sanctioned deterministic randomness source detrand
// points to in its messages.
const XPRNGPackage = "repro/internal/xprng"

// ClockPackage is the sanctioned telemetry clock detrand points to for wall
// time: obs.Now/obs.Since read time for counters, spans, and benchmark
// reporting, and the obs package's contract is that clock values flow into
// telemetry only — never simulation state, output tables, or cache keys.
// Det-policed code that wants wall time migrates to it instead of carrying
// a //repro:allow detrand annotation on a raw time.Now.
const ClockPackage = "repro/internal/obs"

func inList(path string, list []string) bool {
	for _, p := range list {
		if p == path {
			return true
		}
	}
	return false
}

// IsTestFile reports whether f is a _test.go file. All four analyzers skip
// test files: tests may legitimately use wall clocks, environment variables,
// and ad-hoc iteration — the contract binds the library code whose behavior
// reaches output or cache keys. (//repro:allow comments in test files are
// ignored for the same reason: they can never match a finding.)
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}

// NonTestFiles returns files excluding _test.go files.
func NonTestFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	out := make([]*ast.File, 0, len(files))
	for _, f := range files {
		if !IsTestFile(fset, f) {
			out = append(out, f)
		}
	}
	return out
}

// nonTestFiles returns the pass's files excluding _test.go files.
func (p *Pass) nonTestFiles() []*ast.File { return NonTestFiles(p.Fset, p.Files) }
