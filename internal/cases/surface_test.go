package cases

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surface is everything a stock case package may export: its spec name,
// its fleet priority, its factory, and its config schema. A loop is built
// only by Registry.Spawn through the factory, and what it did is read from
// its loop.<name>.* events, so a constructor, a controller type or an
// outcome tally is not part of it.
var surface = map[string]bool{
	"CaseName":      true,
	"FleetPriority": true,
	"Factory":       true,
	"DefaultConfig": true,
	"Config":        true,

	"ioqoscase.Tenant":        true,
	"ioqoscase.FactoryConfig": true,
}

// TestStockCasesExportOnlyTheirFactory parses the case packages built only
// through their factory (schedcase still exports its controller: its LEARN
// input, NoteJobEnd, has no path through the factory) and fails on any
// other exported identifier: a package-level declaration, or a method of
// an exported type.
func TestStockCasesExportOnlyTheirFactory(t *testing.T) {
	for _, pkg := range []string{"powercase", "maintcase", "ostcase", "misconfcase", "ioqoscase"} {
		fset := token.NewFileSet()
		files, err := filepath.Glob(filepath.Join(pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no sources (%v)", pkg, err)
		}
		var extra []string
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range exported(f) {
				if !surface[name] && !surface[pkg+"."+name] {
					extra = append(extra, name)
				}
			}
		}
		sort.Strings(extra)
		if len(extra) > 0 {
			t.Errorf("%s exports %v beyond its factory and config", pkg, extra)
		}
	}
}

// exported lists f's exported package-level identifiers and the exported
// methods of its exported types, the latter as "Type.Method".
func exported(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				out = append(out, d.Name.Name)
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
				out = append(out, id.Name+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, n.Name)
						}
					}
				}
			}
		}
	}
	return out
}
