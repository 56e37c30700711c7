package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// This file is the loader: it resolves package patterns with
// `go list -deps -export -json`, parses the matched packages from source,
// and type-checks them against the compiler export data of their
// dependencies. It uses only the standard library and the go toolchain
// already on PATH; the module stays dependency-free.

// A Target is one source-loaded, type-checked package ready for analysis.
type Target struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// goList runs `go list -deps -export -json` over patterns in dir and
// returns the decoded package stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter type-checks imports from the compiler export data files a
// `go list -export` run produced.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// LoadPackages loads and type-checks every package matched by patterns
// (resolved in dir; dir "" means the current directory), from source, in the
// deterministic order go list produced. Dependencies are consumed as export
// data and are not returned.
func LoadPackages(fset *token.FileSet, dir string, patterns []string) ([]*Target, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	imp := exportImporter(fset, exports)

	var targets []*Target
	for _, p := range pkgs {
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		var files []string
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		t, err := typecheckFiles(fset, imp, p.ImportPath, files)
		if err != nil {
			return nil, err
		}
		targets = append(targets, t)
	}
	return targets, nil
}

// LoadDir parses every .go file directly under dir as one package with the
// given import path and type-checks it, resolving its imports through a
// fresh `go list -export` of exactly the paths the files mention. This is
// the analyzer test harness's loader for testdata packages, which live
// outside the module.
func LoadDir(fset *token.FileSet, dir, importPath string) (*Target, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}

	parsed, err := parseFiles(fset, files)
	if err != nil {
		return nil, err
	}
	// Resolve the testdata package's imports via the toolchain.
	seen := map[string]bool{}
	var imports []string
	for _, f := range parsed {
		for _, spec := range f.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil && !seen[path] {
				seen[path] = true
				imports = append(imports, path)
			}
		}
	}
	exports := map[string]string{}
	if len(imports) > 0 {
		pkgs, err := goList("", imports)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	return typecheck(fset, exportImporter(fset, exports), importPath, parsed)
}

func parseFiles(fset *token.FileSet, files []string) ([]*ast.File, error) {
	var parsed []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	return parsed, nil
}

func typecheckFiles(fset *token.FileSet, imp types.Importer, path string, files []string) (*Target, error) {
	parsed, err := parseFiles(fset, files)
	if err != nil {
		return nil, err
	}
	return typecheck(fset, imp, path, parsed)
}

func typecheck(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*Target, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := &types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return &Target{Path: path, Files: files, Pkg: pkg, Info: info}, nil
}

// RunAnalyzers executes analyzers over one type-checked target and returns
// the raw (unfiltered) diagnostics. Callers apply Filter for //repro:allow
// handling.
func RunAnalyzers(fset *token.FileSet, t *Target, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     t.Files,
			Pkg:       t.Pkg,
			TypesInfo: t.Info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, t.Path, err)
		}
	}
	return diags, nil
}
