// Command reprolint statically enforces this repository's determinism and
// cache-key contract by running the four analyzers of internal/lint:
//
//	reprolint [flags] [packages]
//
// It resolves package patterns (default ./...) with `go list -export`,
// analyzes every module package in one process, and prints each
// unsuppressed finding to stderr. Exit codes: 0 clean, 1 findings, 2 load
// or internal error.
//
// Flags:
//
//	-unused-allows
//	        also fail on //repro:allow annotations that no longer suppress
//	        anything — the self-audit that keeps the debt inventory live
//	-allows
//	        print every //repro:allow annotation with its audited reason
//
// Suppressions are audited comments on the flagged line or the line above:
//
//	//repro:allow <analyzer> <reason>
//
// See DESIGN.md "Determinism contract" for which invariant each analyzer
// guards.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reprolint: ")
	unusedAllows := flag.Bool("unused-allows", false, "fail on //repro:allow annotations that no longer match a finding")
	printAllows := flag.Bool("allows", false, "print the //repro:allow inventory and exit")
	flag.Parse()
	os.Exit(standalone(flag.Args(), *unusedAllows, *printAllows))
}

// standalone loads packages through the go toolchain and analyzes them all
// in one process. Exit codes: 0 clean, 1 findings, 2 load/internal error.
func standalone(patterns []string, unusedAllows, printAllows bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fset := token.NewFileSet()
	targets, err := lint.LoadPackages(fset, "", patterns)
	if err != nil {
		log.Print(err)
		return 2
	}

	if printAllows {
		n := 0
		for _, t := range targets {
			for _, a := range lint.Allows(fset, lint.NonTestFiles(fset, t.Files)) {
				fmt.Printf("%s: //repro:allow %s: %s\n", relPosition(fset, a.Pos), a.Analyzer, a.Reason)
				n++
			}
		}
		fmt.Printf("%d audited suppression(s)\n", n)
		return 0
	}

	exit := 0
	for _, t := range targets {
		diags, err := lint.RunAnalyzers(fset, t, lint.Analyzers())
		if err != nil {
			log.Print(err)
			return 2
		}
		for _, d := range lint.Filter(fset, lint.NonTestFiles(fset, t.Files), diags, unusedAllows) {
			fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", relPosition(fset, d.Pos), d.Message, d.Analyzer)
			exit = 1
		}
	}
	return exit
}

// relPosition renders pos with the file path relative to the current
// directory when the file lies below it.
func relPosition(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, p.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			p.Filename = rel
		}
	}
	return p.String()
}
