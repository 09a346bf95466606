package repro

import (
	"go/ast"
	"go/token"
	"strconv"
	"testing"
)

// solverCore are the packages that compute a solve: the §3 transform
// and its graph, the flow evaluation, the §5 engine and the shard
// coordinator.
var solverCore = []string{"internal/gradient", "internal/flow", "internal/graph", "internal/transform", "internal/shard"}

// TestSolverCoreStartsNoGoroutine fails on a go statement, or an import
// of sync or sync/atomic, in a non-test file of the solver core. A solve
// then runs on the goroutine that calls it, and the race detector has
// nothing to find inside it: what crosses goroutines is the server's
// business (internal/server runs the solver on its own goroutine and
// publishes what it returns).
func TestSolverCoreStartsNoGoroutine(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range solverCore {
		parseNonTest(t, fset, root, func(_ string, f *ast.File) {
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || p == "sync/atomic" {
					t.Errorf("%s: imports %s", fset.Position(imp.Pos()), p)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement", fset.Position(g.Pos()))
				}
				return true
			})
		})
	}
}
