package autoloop_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestNoDeadExports fails for every exported func, method, type, const or
// package-level var declared in a non-test file under internal/ or cmd/
// that nothing live refers to. Each such identifier is interface surface a
// site adapter or a reader has to understand, so it must pay for itself.
//
// A reference is live when it comes from a non-test file anywhere in the
// module (bench/ and examples/ included), or from a _test.go file in a
// different directory than the declaration. A reference from the declaring
// package's own tests is not live: a helper only those tests need belongs
// in that package's export_test.go. A method is also live when its type
// implements an interface whose method some live code calls through the
// interface, or a standard-library interface (fmt.Stringer, error,
// json.Marshaler, heap.Interface, Unwrap, ...). An interface method is live
// only when something calls it through the interface.
//
// testdata/exports_allowlist.txt lists the exceptions, one
// "pkg.Name  # reason" per line; an entry that names no declared identifier,
// or one that is live anyway, fails the test.
func TestNoDeadExports(t *testing.T) {
	start := time.Now()
	u, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(filepath.Join("testdata", "exports_allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]bool)
	for _, c := range u.candidates {
		declared[c.name] = true
	}
	dead := make(map[string]bool)
	for _, c := range u.deadExports() {
		dead[c.name] = true
		if _, ok := allow[c.name]; !ok {
			t.Errorf("%s %s has no live reference: delete it, or move a test-only helper to export_test.go", c.pos, c.name)
		}
	}
	for name := range allow {
		switch {
		case !declared[name]:
			t.Errorf("allowlist entry %s names no exported identifier under internal/ or cmd/", name)
		case !dead[name]:
			t.Errorf("allowlist entry %s is live: drop it from the allowlist", name)
		}
	}
	t.Logf("%d exported identifiers checked, %d allowlisted, in %v", len(u.candidates), len(allow), time.Since(start).Round(time.Millisecond))
}

// readAllowlist parses "pkg.Name  # reason" lines; blank lines and lines
// starting with # are skipped, and every entry must give a reason.
func readAllowlist(file string) (map[string]string, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := make(map[string]string)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "#")
		name, reason = strings.TrimSpace(name), strings.TrimSpace(reason)
		if reason == "" || strings.ContainsAny(name, " \t") {
			return nil, fmt.Errorf("%s:%d: want \"pkg.Name  # reason\", got %q", file, n, line)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}

// modPackage is one directory of the module: its package (non-test files
// plus in-package tests) and its external _test package, if any.
type modPackage struct {
	path, dir  string
	files      []*ast.File
	xtest      []*ast.File
	pkg        *types.Package
	inProgress bool
}

// candidate is one exported identifier the test judges.
type candidate struct {
	obj  types.Object
	name string // pkg.Name or pkg.Type.Method
	pos  string // file:line
	dir  string
	skip []span // the declaration itself, and a type's method receivers
}

type span struct{ from, to token.Pos }

// universe is the whole module type-checked once, from the module root, so
// each object has one identity however many packages refer to it.
type universe struct {
	fset       *token.FileSet
	std        types.Importer
	stdUsed    map[string]*types.Package
	pkgs       map[string]*modPackage
	info       *types.Info
	candidates []*candidate
}

// module is the module path go.mod declares.
const module = "autoloop"

func loadModule() (*universe, error) {
	u := &universe{
		fset:    token.NewFileSet(),
		std:     importer.Default(),
		stdUsed: make(map[string]*types.Package),
		pkgs:    make(map[string]*modPackage),
		info: &types.Info{
			Defs: make(map[*ast.Ident]types.Object),
			Uses: make(map[*ast.Ident]types.Object),
		},
	}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		return u.parseDir(dir)
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(u.pkgs))
	for p := range u.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		mp := u.pkgs[p]
		if _, err := u.check(mp); err != nil {
			return nil, err
		}
		if len(mp.xtest) > 0 {
			conf := types.Config{Importer: u}
			if _, err := conf.Check(mp.path+"_test", u.fset, mp.xtest, u.info); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range paths {
		if mp := u.pkgs[p]; strings.HasPrefix(mp.dir, "internal/") || strings.HasPrefix(mp.dir, "cmd/") {
			u.collect(mp)
		}
	}
	return u, nil
}

// parseDir parses the Go files of one directory that the default build
// context selects (so race_on/race_off pairs resolve to one file).
func (u *universe) parseDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var mp *modPackage
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(u.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if mp == nil {
			mp = &modPackage{path: path.Join(module, filepath.ToSlash(dir)), dir: filepath.ToSlash(dir)}
			u.pkgs[mp.path] = mp
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			mp.xtest = append(mp.xtest, f)
		} else {
			mp.files = append(mp.files, f)
		}
	}
	return nil
}

// Import resolves module packages from source, checked once each together
// with their in-package tests, and everything else from export data.
func (u *universe) Import(p string) (*types.Package, error) {
	if mp, ok := u.pkgs[p]; ok {
		return u.check(mp)
	}
	pkg, err := u.std.Import(p)
	if err == nil {
		u.stdUsed[p] = pkg
	}
	return pkg, err
}

func (u *universe) check(mp *modPackage) (*types.Package, error) {
	if mp.pkg != nil {
		return mp.pkg, nil
	}
	if mp.inProgress {
		return nil, fmt.Errorf("import cycle through %s once in-package tests are included", mp.path)
	}
	mp.inProgress = true
	conf := types.Config{Importer: u}
	pkg, err := conf.Check(mp.path, u.fset, mp.files, u.info)
	if err != nil {
		return nil, err
	}
	mp.pkg = pkg
	return pkg, nil
}

func (u *universe) fileOf(pos token.Pos) string { return filepath.ToSlash(u.fset.File(pos).Name()) }

func (u *universe) isTest(pos token.Pos) bool { return strings.HasSuffix(u.fileOf(pos), "_test.go") }

// collect records the exported identifiers declared in a package's non-test
// files.
func (u *universe) collect(mp *modPackage) {
	label := path.Base(mp.path)
	byObj := make(map[types.Object]*candidate)
	add := func(id *ast.Ident, name string, decl ast.Node) {
		if obj := u.info.Defs[id]; obj != nil && id.IsExported() {
			p := u.fset.Position(id.Pos())
			c := &candidate{obj: obj, name: label + "." + name, pos: fmt.Sprintf("%s:%d", p.Filename, p.Line),
				dir: mp.dir, skip: []span{{decl.Pos(), decl.End()}}}
			byObj[obj] = c
			u.candidates = append(u.candidates, c)
		}
	}
	var methods []*ast.FuncDecl
	for _, f := range mp.files {
		if u.isTest(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d.Name.Name, d)
				} else if recv := u.recvType(d); recv != nil {
					methods = append(methods, d)
					add(d.Name, recv.Name()+"."+d.Name.Name, d)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Name.Name, s)
						if it, ok := s.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									add(id, s.Name.Name+"."+id.Name, m)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, id.Name, s)
						}
					}
				}
			}
		}
	}
	// A type's own method receivers do not keep the type alive.
	for _, m := range methods {
		if c := byObj[u.recvType(m)]; c != nil {
			c.skip = append(c.skip, span{m.Recv.Pos(), m.Recv.End()})
		}
	}
}

// recvType returns the named type a method is declared on.
func (u *universe) recvType(d *ast.FuncDecl) types.Object {
	fn, ok := u.info.Defs[d.Name].(*types.Func)
	if !ok {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// deadExports returns the candidates with no live reference, in
// declaration order.
func (u *universe) deadExports() []*candidate {
	refs := make(map[types.Object][]token.Pos)
	for id, obj := range u.info.Uses {
		if obj.Pkg() != nil {
			refs[obj] = append(refs[obj], id.Pos())
		}
	}
	// An interface method called through the interface keeps alive the
	// method each implementing type supplies for it.
	named := u.namedTypes()
	viaIface := make(map[types.Object][]token.Pos)
	for obj, uses := range refs {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() == nil {
			continue
		}
		if iface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
			for _, impl := range implementations(named, iface, fn.Name()) {
				viaIface[impl] = append(viaIface[impl], uses...)
			}
		}
	}
	// Standard-library protocols are called from code the module does not
	// see, so every method they name counts.
	stdLive := make(map[types.Object]bool)
	for _, iface := range u.stdInterfaces() {
		for i := 0; i < iface.NumMethods(); i++ {
			for _, impl := range implementations(named, iface, iface.Method(i).Name()) {
				stdLive[impl] = true
			}
		}
	}

	var dead []*candidate
	for _, c := range u.candidates {
		if !stdLive[c.obj] && !u.live(c, refs[c.obj]) && !u.live(c, viaIface[c.obj]) {
			dead = append(dead, c)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].obj.Pos() < dead[j].obj.Pos() })
	return dead
}

// live reports whether any of the positions is a live reference to c.
func (u *universe) live(c *candidate, uses []token.Pos) bool {
outer:
	for _, pos := range uses {
		for _, s := range c.skip {
			if s.from <= pos && pos < s.to {
				continue outer
			}
		}
		if !u.isTest(pos) || path.Dir(u.fileOf(pos)) != c.dir {
			return true
		}
	}
	return false
}

// namedTypes lists every non-interface named type the module declares.
func (u *universe) namedTypes() []*types.Named {
	var out []*types.Named
	for _, obj := range u.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) && n.TypeParams() == nil {
			out = append(out, n)
		}
	}
	return out
}

// implementations returns the method called name that each type
// implementing iface (by value or by pointer) supplies.
func implementations(named []*types.Named, iface *types.Interface, name string) []types.Object {
	var out []types.Object
	for _, n := range named {
		for _, t := range []types.Type{n, types.NewPointer(n)} {
			if types.Implements(t, iface) {
				if obj, _, _ := types.LookupFieldOrMethod(t, true, n.Obj().Pkg(), name); obj != nil {
					out = append(out, obj)
				}
				break
			}
		}
	}
	return out
}

// stdInterfaces lists error, the Unwrap protocol errors discovers by type
// assertion, and the exported interfaces of fmt, encoding, encoding/json
// and every other standard-library package the module imports.
func (u *universe) stdInterfaces() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false)
	out := []*types.Interface{
		errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete(),
	}
	for _, p := range []string{"fmt", "encoding", "encoding/json"} {
		_, _ = u.Import(p) // a package export data lacks just adds no protocol
	}
	for _, pkg := range u.stdUsed {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				out = append(out, it)
			}
		}
	}
	return out
}
