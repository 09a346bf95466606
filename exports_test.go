package repro

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// binaryTrees are the trees whose non-test files build a binary: the
// daemon and CLIs, the examples, and the benchmark. An identifier that
// resolves to a declaration in any of them has a caller that ships.
var binaryTrees = []string{"internal", "cmd", "examples", "bench"}

// apiTrees are the trees whose exported declarations the guards check.
var apiTrees = map[string]bool{"internal": true, "cmd": true}

// stdInterfaces are the standard-library interfaces through which the
// standard library calls methods the source never spells out: fmt
// calls String, encoding/json the marshalers, net/http a handler and
// its writer, and sort and flag their interfaces; error is added to
// them. A method is exempt from the export guard when its type
// implements one of these that has a method of its name; a method of
// the same name on a type that implements none of them is checked like
// any other. The errors package's unnamed Is and Unwrap interfaces are
// not listed: no type here declares those methods.
var stdInterfaces = []string{
	"fmt.Stringer",
	"encoding/json.Marshaler", "encoding/json.Unmarshaler",
	"net/http.Handler", "net/http.ResponseWriter", "net/http.Flusher",
	"io.Writer", "io.Closer",
	"sort.Interface",
	"flag.Value",
}

// exportAllowlist names the exports kept with no caller in a binary,
// keyed as the guard prints them, "<dir>.<Recv>.<Name>", with the
// reason. An entry the guard would not flag fails the test, so the list
// cannot outlive its reasons.
var exportAllowlist = map[string]string{
	"internal/flow.Usage.TotalCost":           "parity reference: gradient's reference model forms this unfused A = Y + εD at f + ext to check the engine's fused cost bit for bit, and its finite-difference test differences it",
	"internal/gradient.Engine.Stationarity":   "the full gap at an engine's point: Run's check stops at the first row past its tolerance, and shard's reference loop and the root BenchmarkStationaritySparse read the whole gap",
	"internal/graph.Graph.In":                 "parity reference: graph's, flow's, transform's and stream's tests check in-edge lists and flow balance against this full-graph index",
	"internal/graph.Graph.TopoSortFiltered":   "parity reference: graph's and transform's SubDAG tests, flow's dense reference sweep and gradient's longest-path oracle check the sparse order against this full-graph sort",
	"internal/transform.Extended.ShadowPrice": "parity reference: gradient's reference node prices and transform's and shard's price tests check the node pass's fused ε·D′ against this one-node price",
}

// TestEveryExportHasABinaryCaller fails on an exported function, type,
// var or const, or an exported method, declared in a non-test file
// under internal/ or cmd/ that no identifier in a non-test file of a
// binary tree resolves to. Such a declaration is test-only API in the
// production tree: it moves into its package's export_test.go, or it
// goes. Names are resolved by type (go/types), so a declaration is
// known by its package, its receiver type and its name, and one that
// shares its name with a used one is still found. A use in the
// declaring file counts, since the result type of an exported function
// is API even where nothing else names it, and a method counts as used
// when a call through an interface its type implements names it.
func TestEveryExportHasABinaryCaller(t *testing.T) {
	tr := loadTree(t)
	used := map[types.Object]bool{}
	viaInterface := map[*types.Func]bool{} // interface methods a call names
	for _, obj := range tr.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
			if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				viaInterface[f] = true
			}
		}
		used[obj] = true
	}
	// exempt reports whether m has a caller the source does not name: a
	// call through an interface that m's type implements names it, or
	// its type implements a stdInterfaces interface with a method of its
	// name.
	std := tr.stdInterfaceTypes(t)
	exempt := func(named *types.Named, m *types.Func) bool {
		implements := func(iface *types.Interface) bool {
			return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
		}
		for f := range viaInterface {
			if f.Name() == m.Name() && implements(f.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)) {
				return true
			}
		}
		for _, iface := range std {
			if obj, _, _ := types.LookupFieldOrMethod(iface, false, nil, m.Name()); obj != nil && implements(iface) {
				return true
			}
		}
		return false
	}

	flagged := map[string]bool{}
	var orphans []string
	flag := func(key string, obj types.Object) {
		flagged[key] = true
		if _, ok := exportAllowlist[key]; !ok {
			orphans = append(orphans, tr.fset.Position(obj.Pos()).Filename+": "+key)
		}
	}
	for _, p := range tr.api() {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				flag(p.dir+"."+name, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !exempt(named, m) {
					flag(p.dir+"."+name+"."+m.Name(), m)
				}
			}
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("exported, but no binary uses it: %s", o)
	}
	for key := range exportAllowlist {
		if !flagged[key] {
			t.Errorf("allowlist entry %s is stale: the guard does not flag it", key)
		}
	}
}

// optionAllowlist names the option fields kept with no setter in a
// binary, keyed as TestEveryOptionHasASetter prints them,
// "<dir>.<Type>.<Field>", with the reason. An entry the guard would not
// flag fails the test.
var optionAllowlist = map[string]string{
	"internal/backpressure.Config.BufferCap": "the §6 baseline's source-buffer cap: its tests sweep it, the experiments run the default",
	"internal/backpressure.Config.Damping":   "the §6 baseline's transfer damping: its tests sweep it (1 is the undamped variant), the experiments run the default",
}

// TestEveryOptionHasASetter fails on an exported field of an exported
// struct type named *Options or *Config, declared in a non-test file
// under internal/ or cmd/, that no non-test file of a binary tree sets —
// as a composite-literal key, or on the left of an assignment or an
// increment — other than the file declaring it. Such a knob is one
// value in every binary: it becomes a constant, or it goes. Like
// TestEveryExportHasABinaryCaller it resolves names by type, so setting
// another type's field of the same name does not count.
func TestEveryOptionHasASetter(t *testing.T) {
	tr := loadTree(t)
	setIn := map[*types.Var]map[string]bool{} // field → files setting it
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			file := tr.fset.Position(f.Pos()).Filename
			set := func(e ast.Expr) {
				var id *ast.Ident
				switch e := ast.Unparen(e).(type) {
				case *ast.Ident:
					id = e
				case *ast.SelectorExpr:
					id = e.Sel
				default:
					return
				}
				if v, ok := tr.info.Uses[id].(*types.Var); ok && v.IsField() {
					v = v.Origin()
					if setIn[v] == nil {
						setIn[v] = map[string]bool{}
					}
					setIn[v][file] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					set(n.Key)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if n.Tok != token.DEFINE {
							set(lhs)
						}
					}
				case *ast.IncDecStmt:
					set(n.X)
				}
				return true
			})
		}
	}

	flagged := map[string]bool{}
	var unset []string
	for _, p := range tr.api() {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				fl := st.Field(i)
				if !fl.Exported() || fl.Embedded() {
					continue
				}
				decl := tr.fset.Position(fl.Pos()).Filename
				elsewhere := false
				for file := range setIn[fl] {
					elsewhere = elsewhere || file != decl
				}
				if elsewhere {
					continue
				}
				key := p.dir + "." + name + "." + fl.Name()
				flagged[key] = true
				if _, ok := optionAllowlist[key]; !ok {
					unset = append(unset, decl+": "+key)
				}
			}
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("option field, but no binary sets it: %s", u)
	}
	for key := range optionAllowlist {
		if !flagged[key] {
			t.Errorf("allowlist entry %s is stale: the guard does not flag it", key)
		}
	}
}

// typedTree is every non-test package of the binary trees, type-checked
// once for both guards, with one Info over all their files.
type typedTree struct {
	fset *token.FileSet
	info *types.Info
	pkgs []*typedPkg
	std  types.Importer // the standard library's export data
}

// typedPkg is one package of the tree: its directory, the guards' key
// prefix ("internal/core"), its types and its non-test files.
type typedPkg struct {
	dir   string
	pkg   *types.Package
	files []*ast.File
}

// api is the tree's packages under an apiTrees root.
func (tr *typedTree) api() []*typedPkg {
	var out []*typedPkg
	for _, p := range tr.pkgs {
		if apiTrees[p.dir[:strings.IndexByte(p.dir+"/", '/')]] {
			out = append(out, p)
		}
	}
	return out
}

// stdInterfaceTypes resolves error and the stdInterfaces names.
func (tr *typedTree) stdInterfaceTypes(t *testing.T) []*types.Interface {
	t.Helper()
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, name := range stdInterfaces {
		i := strings.LastIndexByte(name, '.')
		pkg, err := tr.std.Import(name[:i])
		if err != nil {
			t.Fatal(err)
		}
		tn, ok := pkg.Scope().Lookup(name[i+1:]).(*types.TypeName)
		if !ok || !types.IsInterface(tn.Type()) {
			t.Fatalf("%s is not an interface", name)
		}
		out = append(out, tn.Type().Underlying().(*types.Interface))
	}
	return out
}

// module is the import path of the repository root (go.mod).
const module = "repro"

// typed is the tree loadTree built, shared by both guards.
var typed *typedTree

// loadTree type-checks the binary trees' non-test files on its first
// call and returns the same tree after. Packages of the module are
// checked from source, the standard library from its export data.
func loadTree(t *testing.T) *typedTree {
	t.Helper()
	if typed != nil {
		return typed
	}
	tr := &typedTree{fset: token.NewFileSet(), info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	files := map[string][]*ast.File{} // by directory
	for _, root := range binaryTrees {
		parseNonTest(t, tr.fset, root, func(path string, f *ast.File) {
			dir := filepath.ToSlash(filepath.Dir(path))
			files[dir] = append(files[dir], f)
		})
	}
	exports := stdExports(t)
	std := importer.ForCompiler(tr.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("%s: no export data", path)
		}
		return os.Open(file)
	})
	tr.std = std
	checked := map[string]*types.Package{} // by directory
	var load func(dir string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if dir, ok := strings.CutPrefix(path, module+"/"); ok {
			return load(dir)
		}
		return std.Import(path)
	})}
	load = func(dir string) (*types.Package, error) {
		if pkg, ok := checked[dir]; ok {
			return pkg, nil
		}
		if files[dir] == nil {
			return nil, fmt.Errorf("%s: no non-test Go files", dir)
		}
		pkg, err := conf.Check(module+"/"+dir, tr.fset, files[dir], tr.info)
		if err != nil {
			return nil, err
		}
		checked[dir] = pkg
		tr.pkgs = append(tr.pkgs, &typedPkg{dir, pkg, files[dir]})
		return pkg, nil
	}
	dirs := make([]string, 0, len(files))
	for dir := range files {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := load(dir); err != nil {
			t.Fatal(err)
		}
	}
	typed = tr
	return tr
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdExports maps each standard-library package the binary trees
// depend on to its export data file, built by one go list call.
func stdExports(t *testing.T) map[string]string {
	t.Helper()
	args := []string{"list", "-deps", "-export", "-f", "{{if .Standard}}{{.ImportPath}}={{.Export}}{{end}}"}
	for _, root := range binaryTrees {
		args = append(args, "./"+root+"/...")
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Fields(string(out)) {
		if path, file, ok := strings.Cut(line, "="); ok && file != "" {
			exports[path] = file
		}
	}
	return exports
}

// parseNonTest parses every non-test Go file under root into fset,
// testdata excluded, and calls fn with its path and syntax tree.
func parseNonTest(t *testing.T, fset *token.FileSet, root string, fn func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
