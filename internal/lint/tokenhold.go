package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TokenholdAnalyzer polices the worker-budget contract of internal/runner:
// budget tokens are only ever try-acquired, and a goroutine that holds one
// is supposed to be simulating, not waiting. A blocking wait on the
// worker-budget path parks a token along with the goroutine — cores idle
// fleet-wide while runnable cells queue — which is exactly the bug family
// ROADMAP's "worker-budget idle spots" item tracks.
//
// Two rules:
//
//   - In every package: a function literal passed to runner.Stream or
//     runner.Map (a worker callback) must not re-enter Stream/Map — the
//     nested fan-out waits while the callback's token sits idle — and must
//     not launch goroutines, which escape the budget entirely.
//   - In TokenPackages (the runner itself, plus rcache, whose singleflight
//     waiters run on worker goroutines): flag blocking waits — channel
//     receives, select without default, sync.WaitGroup.Wait and
//     sync.Cond.Wait.
//
// A blocking wait wrapped in a function literal passed to runner.Lend is
// sanctioned: Lend is the repository's lend-the-token protocol — it
// releases the caller's budget token for the duration of the wait and
// reacquires one after — so the parked goroutine provably holds no token.
// Both waits that need a token released route through Lend: the
// singleflight waiter in rcache.Store.DoSpan, and a runner.Stream caller
// waiting for its helpers' last jobs. The remaining //repro:allow tokenhold
// annotations cover only waits that hold no token by construction: two
// bounded shutdown drains, and Lend's own reacquire wait.
var TokenholdAnalyzer = &Analyzer{
	Name: "tokenhold",
	Doc:  "flag blocking waits and nested fan-outs that idle worker-budget tokens",
	Run:  runTokenhold,
}

func runTokenhold(pass *Pass) error {
	inTokenPkg := inList(pass.Pkg.Path(), TokenPackages)
	for _, f := range pass.nonTestFiles() {
		// First pass: collect the body spans of function literals handed to
		// runner.Lend. Waits inside them are the lend protocol itself — the
		// token has been released before the wait runs — so the blocking-
		// wait rule must not fire there.
		var lent []lentSpan
		if inTokenPkg {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isRunnerLend(pass, call.Fun) {
					return true
				}
				for _, arg := range call.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						lent = append(lent, lentSpan{lit.Pos(), lit.End()})
					}
				}
				return true
			})
		}
		polled := map[ast.Expr]bool{} // comm-clause receives of selects with a default
		ast.Inspect(f, func(n ast.Node) bool {
			if inTokenPkg && !inLentSpan(lent, n) {
				checkBlockingWait(pass, n, polled)
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if name, ok := runnerFanout(pass, call.Fun); ok {
					checkWorkerCallbacks(pass, name, call)
				}
			}
			return true
		})
	}
	return nil
}

// lentSpan is the source extent of a function literal passed to runner.Lend.
type lentSpan struct{ pos, end token.Pos }

func inLentSpan(spans []lentSpan, n ast.Node) bool {
	if n == nil || len(spans) == 0 {
		return false
	}
	p := n.Pos()
	for _, s := range spans {
		if s.pos <= p && p < s.end {
			return true
		}
	}
	return false
}

// isRunnerLend reports whether fun denotes runner.Lend — as a selector from
// an importing package or as a bare identifier inside the runner package
// itself.
func isRunnerLend(pass *Pass, fun ast.Expr) bool {
	var obj types.Object
	switch e := ast.Unparen(fun).(type) {
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[e.Sel]
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[e]
	default:
		return false
	}
	fn, ok := obj.(*types.Func)
	return ok && fn.Name() == "Lend" && fn.Pkg() != nil && fn.Pkg().Path() == RunnerPackage
}

// checkBlockingWait flags operations that park the current goroutine — and
// any budget token it holds — until another goroutine acts. A select with a
// default never blocks: its comm-clause receives, which the walk visits
// next, are recorded in polled and skipped.
func checkBlockingWait(pass *Pass, n ast.Node, polled map[ast.Expr]bool) {
	switch n := n.(type) {
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !polled[n] {
			pass.Reportf(n.Pos(),
				"blocking channel receive on the worker-budget path: a goroutine parked here idles any budget token it holds")
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, clause := range n.Body.List {
			hasDefault = hasDefault || clause.(*ast.CommClause).Comm == nil
		}
		if hasDefault {
			for _, clause := range n.Body.List {
				if recv := commRecv(clause.(*ast.CommClause).Comm); recv != nil {
					polled[recv] = true
				}
			}
			return
		}
		pass.Reportf(n.Pos(),
			"select without default blocks on the worker-budget path: a goroutine parked here idles any budget token it holds")
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
			if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
				obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
				pass.Reportf(n.Pos(),
					"sync %s blocks on the worker-budget path: a goroutine parked here idles any budget token it holds",
					types.ExprString(n.Fun))
			}
		}
	}
}

// commRecv returns the receive of a select comm clause — `<-ch`,
// `v := <-ch` or `v, ok = <-ch` — or nil for a send or a default.
func commRecv(comm ast.Stmt) ast.Expr {
	var e ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		e = s.Rhs[0]
	}
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u
	}
	return nil
}

// runnerFanout reports whether fun denotes runner.Stream or runner.Map
// (including explicit instantiations like runner.Stream[int]).
func runnerFanout(pass *Pass, fun ast.Expr) (string, bool) {
	fun = ast.Unparen(fun)
	switch e := fun.(type) {
	case *ast.IndexExpr:
		fun = e.X
	case *ast.IndexListExpr:
		fun = e.X
	}
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != RunnerPackage {
		return "", false
	}
	if name := obj.Name(); name == "Stream" || name == "Map" {
		return name, true
	}
	return "", false
}

// checkWorkerCallbacks inspects the function literals passed to a
// runner.Stream/Map call — the job closures (often inside a slice composite
// literal) and the yield callback — for re-entry and goroutine launches.
func checkWorkerCallbacks(pass *Pass, outer string, call *ast.CallExpr) {
	var lits []*ast.FuncLit
	var collect func(e ast.Expr)
	collect = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.FuncLit:
			lits = append(lits, e)
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					collect(kv.Value)
				} else {
					collect(elt)
				}
			}
		}
	}
	for _, arg := range call.Args {
		collect(arg)
	}
	for _, lit := range lits {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name, ok := runnerFanout(pass, n.Fun); ok {
					pass.Reportf(n.Pos(),
						"runner.%s re-entered from inside a runner.%s worker callback: the callback's goroutine holds a budget token while the nested fan-out waits (ROADMAP: lend-the-token protocol)",
						name, outer)
				}
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"goroutine launched from inside a runner.%s worker callback escapes the worker budget: it runs unaccounted alongside the budgeted workers", outer)
			}
			return true
		})
	}
}
