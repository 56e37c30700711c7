package main

import (
	"os"
	"path/filepath"
	"testing"
)

// chdirModule writes a one-package module holding src as a.go into a temp
// directory and makes it the working directory for the rest of the test.
func chdirModule(t *testing.T, src string) {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module lintprobe\n\ngo 1.24\n",
		"a.go":   src,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
}

// TestExitCodes pins the driver's contract: 0 clean, 1 findings, 2 when the
// packages cannot be loaded.
func TestExitCodes(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		chdirModule(t, "package lintprobe\n\nfunc F() int { return 1 }\n")
		if got := standalone(nil, true, false); got != 0 {
			t.Fatalf("exit %d, want 0", got)
		}
	})
	t.Run("stale-allow", func(t *testing.T) {
		chdirModule(t, "package lintprobe\n\n//repro:allow detrand nothing here reads the clock\nfunc F() int { return 1 }\n")
		if got := standalone(nil, false, false); got != 0 {
			t.Fatalf("without -unused-allows: exit %d, want 0", got)
		}
		if got := standalone(nil, true, false); got != 1 {
			t.Fatalf("with -unused-allows: exit %d, want 1", got)
		}
	})
	t.Run("unloadable", func(t *testing.T) {
		chdirModule(t, "package lintprobe\n")
		if got := standalone([]string{"./nosuchdir"}, false, false); got != 2 {
			t.Fatalf("exit %d, want 2", got)
		}
	})
}
