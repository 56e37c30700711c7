package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// FpcompleteAnalyzer statically proves fingerprint completeness: every
// method named Fingerprint with a struct receiver must reference every field
// of that struct. A Fingerprint is the cache key's view of a value — a field
// it omits is a parameter two different cells can disagree on while hashing
// identically, so the content-addressed store would serve one cell's metrics
// for the other. The reflection tests (machine.TestFingerprintCoversEveryField,
// workloads.TestSpecFingerprintCoversEveryField) catch this at test time by
// perturbing each field; this analyzer catches it at lint time and names the
// missing field directly.
//
// A field that is deliberately excluded from the identity (none exist today)
// must carry a //repro:allow fpcomplete annotation on the method with the
// reason it cannot affect simulation.
var FpcompleteAnalyzer = &Analyzer{
	Name: "fpcomplete",
	Doc:  "every Fingerprint method must reference every field of its receiver struct",
	Run:  runFpcomplete,
}

func runFpcomplete(pass *Pass) error {
	for _, f := range pass.nonTestFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Fingerprint" || fd.Body == nil {
				continue
			}
			checkFingerprint(pass, fd)
		}
	}
	return nil
}

func checkFingerprint(pass *Pass, fd *ast.FuncDecl) {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return
	}
	rt := recv.Type()
	if p, ok := rt.Underlying().(*types.Pointer); ok {
		rt = p.Elem()
	}
	st, ok := rt.Underlying().(*types.Struct)
	if !ok {
		return // Fingerprint on a non-struct type: nothing to enumerate
	}

	// Collect the fields referenced anywhere in the body through a value of
	// the receiver struct (the receiver itself, or any copy/alias of it —
	// selections are matched by field object identity, not receiver name).
	used := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok {
				used[v] = true
			}
			// An embedded-field path (c.Inner.X) also covers the embedded
			// field itself — but only when the selection really starts at
			// the receiver struct (the index is relative to its field list).
			srt := s.Recv()
			if p, ok := srt.Underlying().(*types.Pointer); ok {
				srt = p.Elem()
			}
			if srt.Underlying() == st && len(s.Index()) > 0 {
				if base, ok := fieldAt(st, s.Index()[0]); ok {
					used[base] = true
				}
			}
		}
		return true
	})

	var missing []string
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); !used[f] {
			missing = append(missing, f.Name())
		}
	}
	if len(missing) > 0 {
		pass.Reportf(fd.Name.Pos(),
			"Fingerprint of %s omits field%s %s: values differing only there would hash to the same cache key and alias each other's cached results",
			types.TypeString(recv.Type(), types.RelativeTo(pass.Pkg)), plural(missing), strings.Join(missing, ", "))
	}
}

func fieldAt(st *types.Struct, i int) (*types.Var, bool) {
	if i < 0 || i >= st.NumFields() {
		return nil, false
	}
	return st.Field(i), true
}

func plural(s []string) string {
	if len(s) > 1 {
		return "s"
	}
	return ""
}
