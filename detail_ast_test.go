package autoloop_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoFormattedDecisionDetails fails when a case, the fleet coordinator
// or an experiment builds a decision's detail or explanation with fmt's
// Sprint family: a loop decides on every tick whether or not anyone reads
// the decision, so a detail is data (core.Reason.With, core.Text) and is
// rendered only when read. It checks every Detail: or Explanation: field
// in a composite literal and every assignment to a .Detail or
// .Explanation, wrapped calls included.
func TestNoFormattedDecisionDetails(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	for _, root := range []string{"internal/cases", "internal/fleet", "internal/experiments"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			checked++
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok && isDetailField(key.Name) {
						reportFormatted(t, fset, key.Name, n.Value)
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && isDetailField(sel.Sel.Name) && i < len(n.Rhs) {
							reportFormatted(t, fset, sel.Sel.Name, n.Rhs[i])
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 {
		t.Fatal("no source files checked")
	}
}

func isDetailField(name string) bool { return name == "Detail" || name == "Explanation" }

// reportFormatted fails the test for each fmt.Sprint, Sprintf or Sprintln
// call inside value.
func reportFormatted(t *testing.T, fset *token.FileSet, field string, value ast.Expr) {
	t.Helper()
	ast.Inspect(value, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fmt" && strings.HasPrefix(sel.Sel.Name, "Sprint") {
			t.Errorf("%s: %s built with fmt.%s; a detail is data, render it only when read (core.Reason.With or core.Text)",
				fset.Position(call.Pos()), field, sel.Sel.Name)
		}
		return true
	})
}
