package lint_test

// Tests that pin the analyzers to the real module: fpcomplete must agree
// with the runtime reflection tests (machine.TestFingerprintCoversEveryField,
// workloads.TestSpecFingerprintCoversEveryField) that today's Fingerprint
// methods are complete, and the whole module must be clean under the full
// suite with every //repro:allow consumed — the same gate CI's
// `reprolint -unused-allows ./...` step enforces.

import (
	"go/ast"
	"go/token"
	"testing"

	"repro/internal/lint"
)

func TestFpcompleteAgreesWithReflectionTests(t *testing.T) {
	fset := token.NewFileSet()
	targets, err := lint.LoadPackages(fset, "", []string{"repro/internal/machine", "repro/internal/workloads"})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(targets))
	}
	for _, tg := range targets {
		// Guard against a vacuous pass: both packages must actually define
		// Fingerprint methods for the analyzer to prove complete.
		methods := 0
		for _, f := range lint.NonTestFiles(fset, tg.Files) {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "Fingerprint" {
					methods++
				}
			}
		}
		if methods == 0 {
			t.Errorf("%s: no Fingerprint methods found; the completeness check proved nothing", tg.Path)
			continue
		}
		diags, err := lint.RunAnalyzers(fset, tg, []*lint.Analyzer{lint.FpcompleteAnalyzer})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			t.Errorf("%s:%d: %s — the reflection tests pass, so this is an analyzer false positive", pos.Filename, pos.Line, d.Message)
		}
	}
}

func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the whole module; skipped with -short")
	}
	fset := token.NewFileSet()
	targets, err := lint.LoadPackages(fset, "", []string{"repro/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) < 10 {
		t.Fatalf("loaded only %d packages from repro/...; the sweep is not covering the module", len(targets))
	}
	allows := 0
	for _, tg := range targets {
		diags, err := lint.RunAnalyzers(fset, tg, lint.Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		// unusedAllows on: the gate also rejects stale suppressions.
		for _, d := range lint.Filter(fset, tg.Files, diags, true) {
			pos := fset.Position(d.Pos)
			t.Errorf("%s:%d: %s [%s]", pos.Filename, pos.Line, d.Message, d.Analyzer)
		}
		allows += len(lint.Allows(fset, lint.NonTestFiles(fset, tg.Files)))
	}
	if allows == 0 {
		t.Error("found no //repro:allow annotations in the module; the audited-debt inventory should not be empty")
	}
}
